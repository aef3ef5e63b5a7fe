// Unified communication predictor for the simulated parallel MTTKRP
// algorithms: one entry point covering Algorithm 3 (stationary), Algorithm 4
// (general), and the all-modes variant, over every storage format, both
// sparse partition schemes, and both collective schedules (bucket ring vs
// recursive doubling/halving).
//
// The predictor builds the same phase plan the drivers run
// (src/parsim/phase_plan.hpp), from the same partitions, and tallies every
// group member's phase_member_traffic — the traffic of its position in the
// one collective schedule the transports run (src/parsim/schedule.hpp) —
// per rank and category. That gives predictions that match the simulator's
// Machine counters *word for word and message for message*, including the
// nnz-aware Algorithm 4 tensor gather (the Eq. (18) analogue with nonzero
// terms: N+1 words per nonzero of each P0-fiber's block). Above
// `exact_rank_cap` ranks the per-rank replay is skipped and a balanced
// closed-form estimate (2x Eqs. (14)/(18), sent+received, with the matching
// α-side round counts) is returned with `exact = false`.
#pragma once

#include <vector>

#include "src/mttkrp/dispatch.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/schedule.hpp"
#include "src/support/index.hpp"

namespace mtk {

enum class ParAlgo { kStationary, kGeneral, kAllModes };

const char* to_string(ParAlgo algo);

struct CommPrediction {
  double words = 0.0;         // bottleneck rank's sent + received
  double messages = 0.0;      // max over ranks of messages sent
  double tensor_words = 0.0;  // share from the Algorithm 4 tensor All-Gather
  double factor_words = 0.0;  // share from the factor All-Gathers
  double output_words = 0.0;  // share from the output Reduce-Scatters
  double gram_words = 0.0;    // share from Gram All-Reduces (CP-ALS only)
  // Message counts of the max-words rank per phase (the α-side breakdown
  // the planner's per-phase schedule selection consumes). Note `messages`
  // above is a max over *all* ranks, so it can exceed the sum of these.
  double tensor_messages = 0.0;
  double factor_messages = 0.0;
  double output_messages = 0.0;
  double gram_messages = 0.0;
  // True when the per-rank replay ran (prediction matches the simulator's
  // counters exactly); false for the balanced closed-form estimate.
  bool exact = false;
};

// Per-rank words moved (sent + received) and messages sent, by traffic
// category. The predictor fills it from a phase plan and the drift report
// (src/obs/drift) from the recorded phases; both read it through
// bottleneck(), so they share one bottleneck rule.
class TrafficTally {
 public:
  explicit TrafficTally(int num_ranks);

  void add(int rank, TrafficCategory category, double words,
           double messages);
  // Divides every rank's `category` words and messages by `divisor`.
  void divide(TrafficCategory category, double divisor);
  // The first rank with the largest total words supplies `words` and the
  // per-category breakdown; `messages` is the max total over all ranks
  // (the two differ when a rank sits in small-word, many-round groups).
  // `exact` is left false.
  CommPrediction bottleneck() const;

 private:
  static std::size_t slot(std::size_t rank, TrafficCategory category) {
    return rank * kTrafficCategories + static_cast<std::size_t>(category);
  }

  std::vector<double> words_;
  std::vector<double> messages_;
};

// Problem description the predictor consumes. `coo` optionally carries the
// nonzero structure (borrowed; may be null): with it the predictor places
// medium-grained boundaries and counts each Algorithm 4 fiber block's
// tuples exactly; without it sparse predictions assume balanced nonzeros.
struct PredictProblem {
  shape_t dims;
  index_t rank = 0;
  StorageFormat format = StorageFormat::kDense;
  index_t nnz = 0;                    // stored values (dense: prod(dims))
  const SparseTensor* coo = nullptr;
};

// Builds a PredictProblem from a stored tensor. For CSF input the COO
// expansion lands in `scratch`, which must outlive the returned problem.
PredictProblem make_predict_problem(const StoredTensor& x, index_t rank,
                                    SparseTensor& scratch);

// Bottleneck communication of one MTTKRP. `grid` has N entries for
// kStationary/kAllModes and N+1 (P0 first) for kGeneral; `mode` is the
// output mode (ignored by kAllModes, which produces every mode).
// `collectives` is the per-phase schedule the run will use; the default
// replays the bucket rings everywhere.
CommPrediction predict_mttkrp_comm(const PredictProblem& p, ParAlgo algo,
                                   const std::vector<int>& grid, int mode,
                                   SparsePartitionScheme scheme =
                                       SparsePartitionScheme::kBlock,
                                   CollectiveSchedule collectives =
                                       CollectiveKind::kBucket,
                                   int exact_rank_cap = 1 << 15);

// One par_cp_als iteration on an N-way grid: N stationary MTTKRPs (one per
// output mode) plus N machine-wide R^2 Gram All-Reduces, accumulated per
// rank so the bottleneck is taken over the iteration's total.
CommPrediction predict_cp_als_iteration(const PredictProblem& p,
                                        const std::vector<int>& grid,
                                        SparsePartitionScheme scheme =
                                            SparsePartitionScheme::kBlock,
                                        CollectiveSchedule collectives =
                                            CollectiveKind::kBucket,
                                        int exact_rank_cap = 1 << 15);

}  // namespace mtk
