// Measured machine calibration for the planner's α-β-γ cost model.
//
// The planner's ranking objective is a modeled execution time
//
//   T = β · words  +  α · messages  +  γ(backend) · flops,
//
// normalized by β so the default score stays in "word" units:
// score = words + (α/β) · messages + (γ/β) · flops. Before this layer the
// two ratios were hand-set knobs (`flop_word_ratio`, `latency_word_ratio`);
// `calibrate_machine` derives them from timing probes on the actual host:
//
//   β — inverse streaming-copy bandwidth (a large memcpy, best of a few),
//   α — per-call overhead of a batch of tiny copies (the software-overhead
//       proxy for per-message latency on the simulated machine; no real
//       network exists here, which is documented rather than papered over),
//   γ — seconds per modeled flop of the local dense / COO / CSF MTTKRP
//       kernels, measured per backend so the CSF-vs-COO trade-off in the
//       planner reflects this machine, not the built-in constants.
//
// A Calibration serializes into the persistent plan-cache file (hex floats,
// bit-exact round-trip) so one `mttkrp_cli --calibrate` run serves every
// later planning invocation on the same host.
#pragma once

#include <cstdio>
#include <iosfwd>

#include "src/mttkrp/dispatch.hpp"
#include "src/support/index.hpp"

namespace mtk {

struct Calibration {
  double alpha_seconds = 0.0;          // per-message overhead
  double beta_seconds_per_word = 0.0;  // inverse streaming-copy bandwidth
  double dense_seconds_per_flop = 0.0;
  double coo_seconds_per_flop = 0.0;
  double csf_seconds_per_flop = 0.0;
  bool measured = false;

  double seconds_per_flop(StorageFormat format) const;
  // γ/β and α/β — the planner's score ratios. Both are 0 when the
  // calibration is unmeasured or degenerate (β == 0), which reduces the
  // score to pure communication, the paper's objective.
  double flop_word_ratio(StorageFormat format) const;
  double latency_word_ratio() const;

  bool operator==(const Calibration& o) const;
  bool operator!=(const Calibration& o) const { return !(*this == o); }
};

// The modeled multiply-add count per stored value (as a multiple of the
// factor column count) that γ is measured against: the COO kernel touches
// one row of each of the N factors per nonzero; CSF's fiber sharing
// amortizes roughly half the non-leaf row loads; the dense two-step kernel
// is per-element times N. Shared by the calibration probes and the
// planner's compute model so the measured γ and the predicted flops cancel
// consistently.
double modeled_flops_per_value(StorageFormat format, int order);

struct CalibrateOptions {
  index_t probe_words = index_t{1} << 21;  // streaming-copy probe length
  index_t small_copies = 4096;             // tiny-copy batch for α
  index_t kernel_dim = 48;                 // cubical probe extent per mode
  index_t kernel_rank = 16;
  double sparse_density = 0.05;
  int repetitions = 3;  // keep the fastest timing of this many
  std::uint64_t seed = 20180521;
};

Calibration calibrate_machine(const CalibrateOptions& opts = {});

void print_calibration(const Calibration& cal, std::FILE* out);

// Line-oriented serialization used inside the plan-cache file: one
// "calibration ..." line with hex-float fields (bit-exact round-trip).
void write_calibration(std::ostream& out, const Calibration& cal);
// Parses the payload of one calibration line (everything after the tag).
// Returns false — leaving `cal` untouched — on any malformed field.
bool parse_calibration(const std::string& payload, Calibration& cal);

}  // namespace mtk
