// CountingTransport: verification wrapper that runs every collective on a
// real inner transport AND replays it on a shadow SimTransport, then
// asserts (1) the data is bit-identical and (2) every rank's word and
// message counters match the simulator's prediction exactly. This is the
// acceptance gate for the thread backend: if ThreadTransport ever moves a
// word the model does not charge (or vice versa), the next collective
// throws instead of letting the discrepancy drift.
#pragma once

#include "src/parsim/transport/transport.hpp"

namespace mtk {

class CountingTransport final : public Transport {
 public:
  explicit CountingTransport(std::unique_ptr<Transport> inner);

  TransportKind kind() const override { return inner_->kind(); }
  int num_ranks() const override { return inner_->num_ranks(); }

  const CommStats& stats(int rank) const override {
    return inner_->stats(rank);
  }
  void reset_stats() override {
    inner_->reset_stats();
    shadow_.reset_stats();
  }
  void record_phase(PhaseRecord record) override {
    inner_->record_phase(std::move(record));
  }
  const std::vector<PhaseRecord>& phases() const override {
    return inner_->phases();
  }

  // The simulator's view of the traffic so far (what the inner transport's
  // counters are checked against after every collective).
  const Machine& shadow() const { return shadow_.machine(); }
  index_t collectives_checked() const { return collectives_checked_; }

  // Totals compared so far, summed over ranks — the numbers the CLI's
  // --verify-counts parity summary reports.
  index_t words_compared() const;
  index_t messages_compared() const;

 protected:
  std::vector<double> do_all_gather(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& contributions,
      CollectiveKind kind) override;
  std::vector<std::vector<double>> do_reduce_scatter(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& inputs,
      const std::vector<index_t>& chunk_sizes, CollectiveKind kind) override;
  void do_run_ranks(const std::function<void(int)>& body) override;

 private:
  void check_counters(const char* what);

  std::unique_ptr<Transport> inner_;
  SimTransport shadow_;
  index_t collectives_checked_ = 0;
};

}  // namespace mtk
