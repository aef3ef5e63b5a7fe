#include "src/obs/drift.hpp"

#include <algorithm>
#include <cmath>

namespace mtk {
namespace {

double drift_pct(double predicted, double actual) {
  if (predicted == actual) return 0.0;
  if (predicted == 0.0) return 100.0;
  return 100.0 * (actual - predicted) / predicted;
}

}  // namespace

double DriftRow::word_drift_pct() const {
  return drift_pct(predicted_words, actual_words);
}

double DriftRow::message_drift_pct() const {
  return drift_pct(predicted_messages, actual_messages);
}

const DriftRow* DriftReport::find(const std::string& phase) const {
  for (const auto& row : rows) {
    if (row.phase == phase) return &row;
  }
  return nullptr;
}

DriftReport compute_drift(const Transport& transport,
                          const CommPrediction& predicted, double sweep_count,
                          double gram_count) {
  MTK_CHECK(sweep_count > 0.0 && gram_count > 0.0,
            "compute_drift: counts must be positive");
  const std::size_t p = static_cast<std::size_t>(transport.num_ranks());

  // Per-rank, per-category accumulation over every recorded phase.
  TrafficTally tally(transport.num_ranks());
  for (const PhaseRecord& phase : transport.phases()) {
    MTK_CHECK(phase.rank_words.size() == p && phase.rank_messages.size() == p,
              "compute_drift: phase '", phase.label,
              "' carries no per-rank counter deltas");
    for (std::size_t r = 0; r < p; ++r) {
      tally.add(static_cast<int>(r), phase.category,
                static_cast<double>(phase.rank_words[r]),
                static_cast<double>(phase.rank_messages[r]));
    }
  }

  // Normalize to one sweep with a single division per category: the raw
  // sums are exact integers, and one correctly-rounded division returns the
  // exact quotient whenever it is representable — scaling each phase by a
  // reciprocal instead would smear ~1e-16 of error into the exact-parity
  // comparison.
  for (int c = 0; c < kTrafficCategories; ++c) {
    const auto category = static_cast<TrafficCategory>(c);
    tally.divide(category, category == TrafficCategory::kGram ? gram_count
                                                              : sweep_count);
  }
  const CommPrediction actual = tally.bottleneck();

  DriftReport report;
  report.phases_recorded = static_cast<int>(transport.phases().size());
  report.exact_expected =
      transport.kind() == TransportKind::kSim && predicted.exact;

  const DriftRow rows[] = {
      {"tensor", predicted.tensor_words, actual.tensor_words,
       predicted.tensor_messages, actual.tensor_messages},
      {"factor", predicted.factor_words, actual.factor_words,
       predicted.factor_messages, actual.factor_messages},
      {"output", predicted.output_words, actual.output_words,
       predicted.output_messages, actual.output_messages},
      {"gram", predicted.gram_words, actual.gram_words,
       predicted.gram_messages, actual.gram_messages},
  };
  for (const DriftRow& row : rows) {
    if (row.predicted_words == 0.0 && row.actual_words == 0.0 &&
        row.predicted_messages == 0.0 && row.actual_messages == 0.0) {
      continue;  // phase absent from this run (e.g. no tensor gather)
    }
    report.rows.push_back(row);
  }
  report.rows.push_back({"total", predicted.words, actual.words,
                         predicted.messages, actual.messages});

  for (const DriftRow& row : report.rows) {
    report.max_abs_drift_pct =
        std::max({report.max_abs_drift_pct, std::fabs(row.word_drift_pct()),
                  std::fabs(row.message_drift_pct())});
  }
  return report;
}

void print_drift_report(std::FILE* out, const DriftReport& report) {
  std::fprintf(out, "plan-vs-actual drift (%d phase records, %s parity)\n",
               report.phases_recorded,
               report.exact_expected ? "exact" : "best-effort");
  std::fprintf(out, "  %-8s %14s %14s %8s %12s %12s %8s\n", "phase",
               "pred words", "actual words", "drift", "pred msgs",
               "actual msgs", "drift");
  for (const DriftRow& row : report.rows) {
    std::fprintf(out, "  %-8s %14.1f %14.1f %7.2f%% %12.1f %12.1f %7.2f%%\n",
                 row.phase.c_str(), row.predicted_words, row.actual_words,
                 row.word_drift_pct(), row.predicted_messages,
                 row.actual_messages, row.message_drift_pct());
  }
  std::fprintf(out, "  max |drift| = %.4f%%%s\n", report.max_abs_drift_pct,
               report.ok() ? "" : "  ** exceeds exact-parity requirement **");
}

}  // namespace mtk
