// Plan-vs-actual drift: after a traced run, compares the predictor's
// per-phase word/message breakdown (src/planner/predict) against the
// transport's recorded phase counters. On the sim backend the predictor
// replays the exact schedules, so drift must be identically zero — the CLI
// exits nonzero otherwise; on the threads backend the counters are
// bit-identical to the simulator's by construction (see DESIGN.md), so zero
// drift doubles as a live check that the real transport still executes the
// planned schedules.
//
// Every recorded phase carries the traffic category of the planned phase it
// ran (src/parsim/phase_plan.hpp), and its per-rank counter deltas fill the
// predictor's own TrafficTally, so both sides go through one bottleneck
// rule: the word breakdown belongs to the rank with the largest total words
// moved (first such rank in ascending order), while the message total is
// the max over all ranks. Anything else would report phantom drift on runs
// where the word-bottleneck rank is not the message-bottleneck rank.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/parsim/transport/transport.hpp"
#include "src/planner/predict.hpp"

namespace mtk {

struct DriftRow {
  std::string phase;  // "tensor" / "factor" / "output" / "gram" / "total"
  double predicted_words = 0.0;
  double actual_words = 0.0;
  double predicted_messages = 0.0;
  double actual_messages = 0.0;

  double word_drift_pct() const;
  double message_drift_pct() const;
  bool exact() const {
    return predicted_words == actual_words &&
           predicted_messages == actual_messages;
  }
};

struct DriftReport {
  std::vector<DriftRow> rows;  // per-phase rows, then a "total" row
  int phases_recorded = 0;     // transport phase records consumed
  // True when the backend promises exact parity (sim, or an exact
  // prediction being checked against counters the sim also produced).
  bool exact_expected = false;
  double max_abs_drift_pct = 0.0;  // over words and messages, all rows

  const DriftRow* find(const std::string& phase) const;
  // Exact parity when expected; within-tolerance otherwise (the threads
  // backend keeps sim-identical counters, so this is still exact in
  // practice — the flag only controls whether a mismatch is fatal).
  bool ok() const { return !exact_expected || max_abs_drift_pct == 0.0; }
};

// Builds the report from the transport's recorded phases. `sweep_count`
// divides the per-sweep phases (factor gathers, tensor gathers, output
// scatters) and `gram_count` divides the Gram all-reduces, so a CP-ALS run
// over I iterations compares against the per-iteration prediction with
// sweep_count = I and gram_count = I + 1 (initialization performs one extra
// set of Gram all-reduces). A single MTTKRP uses the defaults (1, 1).
DriftReport compute_drift(const Transport& transport,
                          const CommPrediction& predicted,
                          double sweep_count = 1.0, double gram_count = 1.0);

// Human-readable percent-drift table (the --drift-report output).
void print_drift_report(std::FILE* out, const DriftReport& report);

}  // namespace mtk
