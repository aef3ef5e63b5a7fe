#include "src/parsim/par_common.hpp"

#include <algorithm>

#include "src/parsim/distribution.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {

int grid_size(const std::vector<int>& grid_shape) {
  int p = 1;
  for (int e : grid_shape) p *= e;
  return p;
}

const SparseTensor& sparse_coo_view(const StoredTensor& x,
                                    SparseTensor& scratch) {
  MTK_CHECK(x.format() != StorageFormat::kDense,
            "sparse_coo_view requires COO or CSF storage");
  if (x.format() == StorageFormat::kCoo) return x.as_coo();
  scratch = x.as_csf().to_coo();
  return scratch;
}

Matrix local_sparse_mttkrp(const SparseTensor& block,
                           const std::vector<Matrix>& factors, int mode,
                           StorageFormat format) {
  if (format == StorageFormat::kCsf) {
    return mttkrp_csf(CsfTensor::from_coo(block, mode), factors, mode);
  }
  return mttkrp_coo(block, factors, mode);
}

namespace {

// Snapshots per-rank counters around one phase and records it, with the
// per-rank deltas, on destruction.
class PhaseScope {
 public:
  PhaseScope(Transport& transport, const Phase& phase)
      : transport_(transport), phase_(phase) {
    for (int r = 0; r < transport.num_ranks(); ++r) {
      before_.push_back(transport.stats(r).words_moved());
      before_messages_.push_back(transport.stats(r).messages_sent);
    }
  }

  ~PhaseScope() {
    PhaseRecord record;
    record.label = phase_.label;
    record.category = phase_.category;
    record.group_size = phase_.group_size();
    const std::size_t p = before_.size();
    record.rank_words.resize(p);
    record.rank_messages.resize(p);
    for (std::size_t r = 0; r < p; ++r) {
      const CommStats& stats = transport_.stats(static_cast<int>(r));
      record.rank_words[r] = stats.words_moved() - before_[r];
      record.rank_messages[r] = stats.messages_sent - before_messages_[r];
      record.max_words_one_rank =
          std::max(record.max_words_one_rank, record.rank_words[r]);
    }
    transport_.record_phase(std::move(record));
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Transport& transport_;
  const Phase& phase_;
  std::vector<index_t> before_;
  std::vector<index_t> before_messages_;
};

void check_payload(const Phase& phase, std::size_t words,
                   const PlannedGroup& group) {
  MTK_CHECK(static_cast<index_t>(words) == group.words, "phase '",
            phase.label, "': payload of ", words, " words, planned ",
            group.words);
}

// Row-major words of the submatrix rows x cols of `m`.
std::vector<double> flatten_submatrix(const Matrix& m, Range rows,
                                      Range cols) {
  std::vector<double> flat;
  flat.reserve(static_cast<std::size_t>(rows.length() * cols.length()));
  for (index_t i = rows.lo; i < rows.hi; ++i) {
    const double* r = m.row(i);
    flat.insert(flat.end(), r + cols.lo, r + cols.hi);
  }
  return flat;
}

}  // namespace

void run_all_gather(
    Transport& transport, const Phase& phase,
    const std::function<std::vector<double>(std::size_t)>& block,
    const std::function<void(std::size_t, std::vector<double>)>& gathered) {
  MTK_CHECK(phase.op == PhaseOp::kAllGather, "phase '", phase.label,
            "' is not an All-Gather");
  PhaseScope scope(transport, phase);
  for (std::size_t g = 0; g < phase.groups.size(); ++g) {
    const PlannedGroup& group = phase.groups[g];
    const std::vector<double> flat = block(g);
    check_payload(phase, flat.size(), group);
    const int q = static_cast<int>(group.members.size());
    std::vector<std::vector<double>> contributions(static_cast<std::size_t>(q));
    for (int i = 0; i < q; ++i) {
      const Range chunk = flat_chunk(group.words, q, i);
      contributions[static_cast<std::size_t>(i)].assign(
          flat.begin() + chunk.lo, flat.begin() + chunk.hi);
    }
    gathered(g, transport.all_gather(group.members, contributions, phase.kind));
  }
}

std::vector<Matrix> gather_blocks(Transport& transport, const Phase& phase,
                                  const Matrix& factor) {
  std::vector<Matrix> blocks(phase.groups.size());
  run_all_gather(
      transport, phase,
      [&](std::size_t g) {
        return flatten_submatrix(factor, phase.groups[g].rows,
                                 phase.groups[g].cols);
      },
      [&](std::size_t g, std::vector<double> full) {
        Matrix m(phase.groups[g].rows.length(), phase.groups[g].cols.length());
        std::copy(full.begin(), full.end(), m.data());
        blocks[g] = std::move(m);
      });
  return blocks;
}

Matrix reduce_blocks(Transport& transport, const Phase& phase,
                     const std::function<const Matrix&(int)>& local,
                     index_t out_rows, index_t out_cols) {
  MTK_CHECK(phase.op != PhaseOp::kAllGather, "phase '", phase.label,
            "' is not a reduction");
  Matrix out(out_rows, out_cols);
  PhaseScope scope(transport, phase);
  for (const PlannedGroup& group : phase.groups) {
    const int q = static_cast<int>(group.members.size());
    std::vector<std::vector<double>> inputs(static_cast<std::size_t>(q));
    for (int i = 0; i < q; ++i) {
      const Matrix& m = local(group.members[static_cast<std::size_t>(i)]);
      inputs[static_cast<std::size_t>(i)].assign(m.data(), m.data() + m.size());
      check_payload(phase, inputs[static_cast<std::size_t>(i)].size(), group);
    }
    std::vector<double> sum;
    if (phase.op == PhaseOp::kAllReduce) {
      sum = transport.all_reduce(group.members, inputs, phase.kind);
    } else {
      for (const std::vector<double>& chunk : transport.reduce_scatter(
               group.members, inputs, flat_chunk_sizes(group.words, q),
               phase.kind)) {
        sum.insert(sum.end(), chunk.begin(), chunk.end());
      }
    }
    const index_t width = group.cols.length();
    for (index_t w = 0; w < group.words; ++w) {
      out(group.rows.lo + w / width, group.cols.lo + w % width) =
          sum[static_cast<std::size_t>(w)];
    }
  }
  return out;
}

Matrix distributed_gram(Transport& transport, const Matrix& a,
                        CollectiveKind kind) {
  const int p = transport.num_ranks();
  const index_t r = a.cols();
  const std::vector<Range> rows = block_partition(a.rows(), p);

  std::vector<Matrix> partials(static_cast<std::size_t>(p));
  for (int rank = 0; rank < p; ++rank) {
    // Upper triangle only, then mirrored: products commute exactly, so
    // this gives the bits of the full R x R accumulation at half the flops.
    Matrix& partial = partials[static_cast<std::size_t>(rank)];
    partial = Matrix(r, r, 0.0);
    const Range rg = rows[static_cast<std::size_t>(rank)];
    gram_upper_accumulate(a, rg.lo, rg.hi, partial.data());
    mirror_upper(partial);
  }
  return reduce_blocks(
      transport, gram_phase(p, r, kind),
      [&](int rank) -> const Matrix& {
        return partials[static_cast<std::size_t>(rank)];
      },
      r, r);
}

}  // namespace mtk
