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
                           StorageFormat format, SparseKernelVariant variant) {
  if (format == StorageFormat::kCsf) {
    return mttkrp_csf(CsfTensor::from_coo(block, mode), factors, mode,
                      /*parallel=*/false, variant);
  }
  return mttkrp_coo(block, factors, mode, /*parallel=*/false, variant);
}

PhaseScope::PhaseScope(Transport& transport, std::string label,
                       int group_size)
    : transport_(transport),
      label_(std::move(label)),
      group_size_(group_size) {
  const std::size_t p = static_cast<std::size_t>(transport.num_ranks());
  before_.reserve(p);
  before_messages_.reserve(p);
  for (int r = 0; r < transport.num_ranks(); ++r) {
    before_.push_back(transport.stats(r).words_moved());
    before_messages_.push_back(transport.stats(r).messages_sent);
  }
}

PhaseScope::~PhaseScope() {
  PhaseRecord record;
  record.label = label_;
  record.group_size = group_size_;
  const std::size_t p = static_cast<std::size_t>(transport_.num_ranks());
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

Matrix distributed_gram(Transport& transport, const Matrix& a,
                        CollectiveKind kind) {
  const int p = transport.num_ranks();
  const index_t r = a.cols();
  const std::vector<Range> rows = block_partition(a.rows(), p);

  std::vector<std::vector<double>> partials(static_cast<std::size_t>(p));
  for (int rank = 0; rank < p; ++rank) {
    // Upper triangle only, then mirrored: products commute exactly, so
    // this gives the bits of the full R x R accumulation at half the flops.
    Matrix partial(r, r, 0.0);
    const Range rg = rows[static_cast<std::size_t>(rank)];
    gram_upper_accumulate(a, rg.lo, rg.hi, partial.data());
    mirror_upper(partial);
    partials[static_cast<std::size_t>(rank)].assign(
        partial.data(), partial.data() + partial.size());
  }

  std::vector<int> group(static_cast<std::size_t>(p));
  for (int rank = 0; rank < p; ++rank) {
    group[static_cast<std::size_t>(rank)] = rank;
  }
  PhaseScope scope(transport, "all-reduce gram", p);
  const std::vector<double> summed = transport.all_reduce(group, partials, kind);

  Matrix g(r, r);
  std::copy(summed.begin(), summed.end(), g.data());
  return g;
}

Matrix distributed_gram(Machine& machine, const Matrix& a,
                        CollectiveKind kind) {
  SimTransport transport(machine);
  return distributed_gram(static_cast<Transport&>(transport), a, kind);
}

std::vector<double> flatten_rows(const Matrix& m, Range rows) {
  std::vector<double> flat;
  flat.reserve(static_cast<std::size_t>(rows.length() * m.cols()));
  for (index_t i = rows.lo; i < rows.hi; ++i) {
    const double* r = m.row(i);
    flat.insert(flat.end(), r, r + m.cols());
  }
  return flat;
}

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

Matrix unflatten_matrix(const std::vector<double>& flat, index_t rows,
                        index_t cols) {
  MTK_ASSERT(static_cast<index_t>(flat.size()) == rows * cols,
             "unflatten_matrix: ", flat.size(), " words != ", rows, "x", cols);
  Matrix m(rows, cols);
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

std::vector<Matrix> gather_factor_hyperslices(
    Transport& transport, const ProcessorGrid& grid, const Matrix& factor,
    const std::vector<Range>& parts, int grid_dim, CollectiveKind collectives,
    const std::string& label) {
  const int n = grid.ndims();
  const int p = grid.size();
  PhaseScope scope(transport, label, p / grid.extent(grid_dim));
  std::vector<Matrix> gathered(static_cast<std::size_t>(grid.extent(grid_dim)));
  for (int c = 0; c < grid.extent(grid_dim); ++c) {
    // The group is identical for every member; build it from the first rank
    // with coordinate c on grid_dim.
    std::vector<int> coords(static_cast<std::size_t>(n), 0);
    coords[static_cast<std::size_t>(grid_dim)] = c;
    const int representative = grid.rank_of(coords);
    const std::vector<int> group = grid.group_fixing({grid_dim}, representative);
    const int q = static_cast<int>(group.size());

    const Range rows = parts[static_cast<std::size_t>(c)];
    const std::vector<double> block_row = flatten_rows(factor, rows);
    const index_t total = static_cast<index_t>(block_row.size());

    // Member i initially owns the i-th flat chunk of the block row
    // (Section V-C1: "partitioned arbitrarily across the processors in its
    // hyperslice"; we use balanced contiguous chunks).
    std::vector<std::vector<double>> contributions(static_cast<std::size_t>(q));
    for (int i = 0; i < q; ++i) {
      const Range chunk = flat_chunk(total, q, i);
      contributions[static_cast<std::size_t>(i)].assign(
          block_row.begin() + chunk.lo, block_row.begin() + chunk.hi);
    }
    const std::vector<double> full =
        transport.all_gather(group, contributions, collectives);
    gathered[static_cast<std::size_t>(c)] =
        unflatten_matrix(full, rows.length(), factor.cols());
  }
  return gathered;
}

Matrix reduce_scatter_hyperslices(
    Transport& transport, const ProcessorGrid& grid,
    const std::vector<Matrix>& local_c, const std::vector<Range>& parts,
    int grid_dim, index_t out_rows, index_t rank_r,
    CollectiveKind collectives, const std::string& label) {
  const int n = grid.ndims();
  const int p = grid.size();
  Matrix b(out_rows, rank_r);
  PhaseScope scope(transport, label, p / grid.extent(grid_dim));
  for (int c = 0; c < grid.extent(grid_dim); ++c) {
    std::vector<int> coords(static_cast<std::size_t>(n), 0);
    coords[static_cast<std::size_t>(grid_dim)] = c;
    const int representative = grid.rank_of(coords);
    const std::vector<int> group = grid.group_fixing({grid_dim}, representative);
    const int q = static_cast<int>(group.size());

    const Range rows = parts[static_cast<std::size_t>(c)];
    const index_t total = checked_mul(rows.length(), rank_r);

    std::vector<std::vector<double>> inputs(static_cast<std::size_t>(q));
    for (int i = 0; i < q; ++i) {
      const Matrix& ci =
          local_c[static_cast<std::size_t>(group[static_cast<std::size_t>(i)])];
      inputs[static_cast<std::size_t>(i)] = flatten_rows(ci, Range{0, ci.rows()});
    }
    const std::vector<index_t> chunk_sizes = flat_chunk_sizes(total, q);
    const auto reduced =
        transport.reduce_scatter(group, inputs, chunk_sizes, collectives);

    // Member i's chunk covers flat positions [chunk.lo, chunk.hi) of the
    // row-major flattened block row B(S_c, :).
    for (int i = 0; i < q; ++i) {
      const Range chunk = flat_chunk(total, q, i);
      for (index_t w = 0; w < chunk.length(); ++w) {
        const index_t flat = chunk.lo + w;
        b(rows.lo + flat / rank_r, flat % rank_r) =
            reduced[static_cast<std::size_t>(i)][static_cast<std::size_t>(w)];
      }
    }
  }
  return b;
}

}  // namespace mtk
