// Distributed-memory machine simulator (the paper's parallel model,
// Section II-C): P processors, each with local memory, communicating by
// sends and receives. The simulator executes real data movement — parallel
// algorithm outputs are bit-checked against the sequential reference — and
// keeps exact per-rank word counters, which stand in for the MPI machine the
// paper assumes (no MPI exists in this environment; see DESIGN.md).
//
// Both bandwidth (word counts) and latency (message counts) are tracked:
// the paper's analyses are bandwidth-only (Section II-C), but the planner's
// α-β cost model also consumes the per-rank message counters when choosing
// between the bucket and recursive collective schedules.
#pragma once

#include <string>
#include <vector>

#include "src/parsim/schedule.hpp"
#include "src/support/check.hpp"
#include "src/support/math_util.hpp"

namespace mtk {

struct CommStats {
  index_t words_sent = 0;
  index_t words_received = 0;
  index_t messages_sent = 0;

  // The paper's per-processor cost metric: sends plus receives.
  index_t words_moved() const { return words_sent + words_received; }
};

// One collective phase, recorded for per-phase breakdowns in benchmarks and
// for the plan-vs-actual drift report (src/obs/drift).
struct PhaseRecord {
  std::string label;
  TrafficCategory category = TrafficCategory::kFactor;
  int group_size = 0;
  index_t max_words_one_rank = 0;  // max over group members of sent+received
  // Per-machine-rank deltas over the phase: words moved (sent + received)
  // and messages sent. The phase executors (src/parsim/par_common) record
  // every phase with both filled; the drift report needs them to reproduce
  // the predictor's bottleneck-rank semantics.
  std::vector<index_t> rank_words;
  std::vector<index_t> rank_messages;
};

class Machine {
 public:
  explicit Machine(int num_ranks);

  int num_ranks() const { return static_cast<int>(stats_.size()); }

  // Point-to-point primitive: every collective reduces to calls to this.
  void record_send(int from, int to, index_t words);

  const CommStats& stats(int rank) const;
  void reset_stats();

  // Bottleneck metric over all ranks: max_p (sent_p + received_p).
  index_t max_words_moved() const;
  // Latency bottleneck: max_p messages sent (the α term of an α-β model).
  index_t max_messages_sent() const;
  // Aggregate words sent across the machine.
  index_t total_words_sent() const;

  void record_phase(PhaseRecord record) { phases_.push_back(std::move(record)); }
  const std::vector<PhaseRecord>& phases() const { return phases_; }

 private:
  std::vector<CommStats> stats_;
  std::vector<PhaseRecord> phases_;
};

}  // namespace mtk
