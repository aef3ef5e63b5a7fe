#include "src/planner/calibrate.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/mttkrp/mttkrp.hpp"
#include "src/support/check.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"
#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/sparse_tensor.hpp"

namespace mtk {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Best-of-N timing of a thunk; the minimum filters scheduler noise.
template <typename Fn>
double best_of(int repetitions, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < repetitions; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

// The compiler must believe the probe buffers are used.
volatile double g_sink = 0.0;

}  // namespace

double modeled_flops_per_value(StorageFormat format, int order) {
  switch (format) {
    case StorageFormat::kDense: return static_cast<double>(order);
    case StorageFormat::kCoo: return static_cast<double>(order);
    case StorageFormat::kCsf: return static_cast<double>(order + 1) / 2.0;
  }
  return static_cast<double>(order);
}

double Calibration::seconds_per_flop(StorageFormat format) const {
  switch (format) {
    case StorageFormat::kDense: return dense_seconds_per_flop;
    case StorageFormat::kCoo: return coo_seconds_per_flop;
    case StorageFormat::kCsf: return csf_seconds_per_flop;
  }
  return dense_seconds_per_flop;
}

double Calibration::flop_word_ratio(StorageFormat format) const {
  if (!measured || beta_seconds_per_word <= 0.0) return 0.0;
  return seconds_per_flop(format) / beta_seconds_per_word;
}

double Calibration::latency_word_ratio() const {
  if (!measured || beta_seconds_per_word <= 0.0) return 0.0;
  return alpha_seconds / beta_seconds_per_word;
}

bool Calibration::operator==(const Calibration& o) const {
  return alpha_seconds == o.alpha_seconds &&
         beta_seconds_per_word == o.beta_seconds_per_word &&
         dense_seconds_per_flop == o.dense_seconds_per_flop &&
         coo_seconds_per_flop == o.coo_seconds_per_flop &&
         csf_seconds_per_flop == o.csf_seconds_per_flop &&
         measured == o.measured;
}

Calibration calibrate_machine(const CalibrateOptions& opts) {
  MTK_CHECK(opts.probe_words >= 1 && opts.small_copies >= 1 &&
                opts.kernel_dim >= 2 && opts.kernel_rank >= 1 &&
                opts.repetitions >= 1,
            "invalid calibration options");

  Calibration cal;

  // β: streaming-copy bandwidth. One word = one double, the simulator's
  // unit of communication.
  {
    std::vector<double> src(static_cast<std::size_t>(opts.probe_words), 1.0);
    std::vector<double> dst(src.size(), 0.0);
    const double secs = best_of(opts.repetitions, [&] {
      std::memcpy(dst.data(), src.data(), src.size() * sizeof(double));
      g_sink = dst[dst.size() / 2];
    });
    cal.beta_seconds_per_word =
        secs / static_cast<double>(opts.probe_words);
  }

  // α: per-call overhead of tiny copies — a proxy for per-message software
  // overhead (the simulated machine has no physical network to probe). The
  // copy goes through a volatile function pointer so the optimizer cannot
  // collapse the batch into a single store: each iteration pays a real
  // call + 8-word memcpy, which is the overhead being measured.
  {
    std::vector<double> src(8, 1.0);
    std::vector<double> dst(8, 0.0);
    void* (*volatile copy_fn)(void*, const void*, std::size_t) = std::memcpy;
    const double secs = best_of(opts.repetitions, [&] {
      for (index_t i = 0; i < opts.small_copies; ++i) {
        copy_fn(dst.data(), src.data(), 8 * sizeof(double));
      }
      g_sink = dst[0];
    });
    cal.alpha_seconds = secs / static_cast<double>(opts.small_copies);
  }

  // γ per backend: time the local kernel on a cubical synthetic problem
  // and divide by the modeled flop count, so γ · modeled-flops reproduces
  // the measured runtime by construction.
  Rng rng(opts.seed);
  const shape_t dims(3, opts.kernel_dim);
  std::vector<Matrix> factors;
  for (index_t d : dims) {
    factors.push_back(Matrix::random_normal(d, opts.kernel_rank, rng));
  }
  const int order = static_cast<int>(dims.size());
  const double rank_d = static_cast<double>(opts.kernel_rank);

  {
    const DenseTensor dense = DenseTensor::random_normal(dims, rng);
    const double secs = best_of(opts.repetitions, [&] {
      const Matrix b = mttkrp(dense, factors, 0, {});
      g_sink = b(0, 0);
    });
    const double flops = static_cast<double>(dense.size()) * rank_d *
                         modeled_flops_per_value(StorageFormat::kDense, order);
    cal.dense_seconds_per_flop = secs / flops;
  }
  {
    const SparseTensor coo =
        SparseTensor::random_sparse(dims, opts.sparse_density, rng);
    if (coo.nnz() > 0) {
      const double coo_flops =
          static_cast<double>(coo.nnz()) * rank_d *
          modeled_flops_per_value(StorageFormat::kCoo, order);
      const double coo_secs = best_of(opts.repetitions, [&] {
        const Matrix b = mttkrp_coo(coo, factors, 0);
        g_sink = b(0, 0);
      });
      cal.coo_seconds_per_flop = coo_secs / coo_flops;

      const CsfTensor csf = CsfTensor::from_coo(coo);
      const double csf_flops =
          static_cast<double>(coo.nnz()) * rank_d *
          modeled_flops_per_value(StorageFormat::kCsf, order);
      const double csf_secs = best_of(opts.repetitions, [&] {
        const Matrix b = mttkrp_csf(csf, factors, 0);
        g_sink = b(0, 0);
      });
      cal.csf_seconds_per_flop = csf_secs / csf_flops;
    } else {
      cal.coo_seconds_per_flop = cal.dense_seconds_per_flop;
      cal.csf_seconds_per_flop = cal.dense_seconds_per_flop;
    }
  }

  cal.measured = true;
  return cal;
}

void print_calibration(const Calibration& cal, std::FILE* out) {
  std::fprintf(out, "calibration    : alpha %.3e s/msg, beta %.3e s/word "
                    "(%.2f GB/s)\n",
               cal.alpha_seconds, cal.beta_seconds_per_word,
               cal.beta_seconds_per_word > 0.0
                   ? 8.0e-9 / cal.beta_seconds_per_word
                   : 0.0);
  std::fprintf(out, "  gamma s/flop : dense %.3e, coo %.3e, csf %.3e\n",
               cal.dense_seconds_per_flop, cal.coo_seconds_per_flop,
               cal.csf_seconds_per_flop);
  std::fprintf(out, "  ratios       : latency/word %.3f, flop/word "
                    "dense %.4f coo %.4f csf %.4f\n",
               cal.latency_word_ratio(),
               cal.flop_word_ratio(StorageFormat::kDense),
               cal.flop_word_ratio(StorageFormat::kCoo),
               cal.flop_word_ratio(StorageFormat::kCsf));
}

void write_calibration(std::ostream& out, const Calibration& cal) {
  char line[256];
  std::snprintf(line, sizeof line, "calibration %d %a %a %a %a %a\n",
                cal.measured ? 1 : 0, cal.alpha_seconds,
                cal.beta_seconds_per_word, cal.dense_seconds_per_flop,
                cal.coo_seconds_per_flop, cal.csf_seconds_per_flop);
  out << line;
}

bool parse_calibration(const std::string& payload, Calibration& cal) {
  // Tokens are parsed with strtod (istream extraction does not reliably
  // accept the hex-float spellings the writer emits).
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token)) return false;
  if (token != "0" && token != "1") return false;
  Calibration parsed;
  parsed.measured = token == "1";
  double* fields[] = {&parsed.alpha_seconds, &parsed.beta_seconds_per_word,
                      &parsed.dense_seconds_per_flop,
                      &parsed.coo_seconds_per_flop,
                      &parsed.csf_seconds_per_flop};
  for (double* field : fields) {
    if (!(in >> token)) return false;
    char* end = nullptr;
    *field = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
  }
  if (in >> token) return false;  // trailing fields
  cal = parsed;
  return true;
}

}  // namespace mtk
