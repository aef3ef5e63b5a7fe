// Traced replays: each reproduces one library call step by step through
// the public functions of the layers below it, with a span around every
// layer call, so the traced run can say where a decomposition's time goes.
// A replay must reproduce the untraced call's result; the workloads count a
// mismatch as a failed operation.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "src/cp/cp_als.hpp"
#include "src/cp/par_cp_als.hpp"
#include "src/planner/planner.hpp"
#include "src/tensor/csf.hpp"

namespace perfbench {

// Fits of runs that differ only in floating-point summation order (thread
// count, kernel schedule) must agree to this absolute tolerance.
constexpr double kFitTolerance = 1e-6;

// Computed (not measured) work of MTTKRP calls: flops, and compulsory
// bytes — every stored value, index and pointer read once, one factor row
// read per tree node below the root, one output row written per root node,
// with no cache reuse assumed.
struct KernelWork {
  double flops = 0.0;
  double bytes = 0.0;
  void add(const KernelWork& w) {
    flops += w.flops;
    bytes += w.bytes;
  }
};
KernelWork csf_work(const mtk::CsfTensor& tree, mtk::index_t rank);
KernelWork coo_work(const mtk::SparseTensor& x, mtk::index_t rank);
KernelWork dense_work(const mtk::shape_t& dims, mtk::index_t rank);

// Replays cp_als(x, opts) for sparse x on its CSF forest. Spans:
// cp.init, tensor.gram, tensor.solve, cp.normalize, cp.fit_eval,
// mttkrp.forest_build, mttkrp.csf. When `work` is non-null it receives the
// computed work of every MTTKRP call. Returns the final fit.
double replay_cp_als(const mtk::StoredTensor& x, const mtk::CpAlsOptions& opts,
                     SpanLog& log, std::int64_t op, KernelWork* work);

// One replayed par_cp_als call: its result and the traffic it recorded.
struct ParReplay {
  double fit = 0.0;
  mtk::index_t words = 0;     // MTTKRP + Gram bottleneck words, as reported
  mtk::index_t messages = 0;  // bottleneck messages, as reported
  double mttkrp_words = 0.0;
  double all_gather_words = 0.0;      // bottleneck rank, factor gathers
  double reduce_scatter_words = 0.0;  // bottleneck rank, output scatters
  double gram_words = 0.0;            // bottleneck rank, Gram all-reduces
  double nnz_imbalance = 0.0;         // max / mean stored values per rank
  KernelWork work;                    // computed local-kernel work
};

// Seconds the transport measured inside the replayed calls: collectives
// (split by the call that made them) and rank-local kernels.
struct ParLayerTotals {
  double mttkrp_comm_s = 0.0;
  double gram_comm_s = 0.0;
  double local_kernel_s = 0.0;
  ParReplay first;  // the first replay's traffic breakdown
  bool have_first = false;
};

// Replays the autotuned par_cp_als(x, opts) on a fresh transport of kind
// opts.transport.
// Spans: planner.cache_lookup, parsim.distribute, parsim.transport_start,
// cp.init, tensor.gram, parsim.mttkrp, tensor.solve, cp.normalize,
// cp.fit_eval.
ParReplay replay_par_cp_als(const mtk::StoredTensor& x,
                            const mtk::ParCpAlsOptions& opts,
                            const mtk::PlannerOptions& popts, SpanLog& log,
                            std::int64_t op, ParLayerTotals& acc);

}  // namespace perfbench
