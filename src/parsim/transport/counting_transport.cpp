#include "src/parsim/transport/counting_transport.hpp"

#include <algorithm>

namespace mtk {

CountingTransport::CountingTransport(std::unique_ptr<Transport> inner)
    : inner_(std::move(inner)), shadow_(inner_->num_ranks()) {
  MTK_CHECK(inner_ != nullptr, "CountingTransport needs an inner transport");
  // The shadow replays from zero, so the inner counters must start there too.
  inner_->reset_stats();
  // The do_* replays call the inner transport's *public* entry points; let
  // those record the telemetry once instead of double-counting it here, and
  // run the shadow's do_* directly so it records none.
  record_telemetry_ = false;
}

index_t CountingTransport::words_compared() const {
  index_t total = 0;
  for (int r = 0; r < num_ranks(); ++r) {
    total += shadow().stats(r).words_sent + shadow().stats(r).words_received;
  }
  return total;
}

index_t CountingTransport::messages_compared() const {
  index_t total = 0;
  for (int r = 0; r < num_ranks(); ++r) {
    total += shadow().stats(r).messages_sent;
  }
  return total;
}

void CountingTransport::check_counters(const char* what) {
  ++collectives_checked_;
  for (int r = 0; r < num_ranks(); ++r) {
    const CommStats& real = inner_->stats(r);
    const CommStats& predicted = shadow().stats(r);
    MTK_REQUIRE(real.words_sent == predicted.words_sent &&
                    real.words_received == predicted.words_received &&
                    real.messages_sent == predicted.messages_sent,
                what, ": rank ", r, " transport counters diverge from the "
                "simulator: sent ", real.words_sent, "/", predicted.words_sent,
                " words, received ", real.words_received, "/",
                predicted.words_received, ", messages ", real.messages_sent,
                "/", predicted.messages_sent);
  }
}

std::vector<double> CountingTransport::do_all_gather(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& contributions,
    CollectiveKind kind) {
  std::vector<double> real = inner_->all_gather(group, contributions, kind);
  const std::vector<double> predicted =
      static_cast<Transport&>(shadow_).do_all_gather(group, contributions,
                                                     kind);
  MTK_REQUIRE(real.size() == predicted.size() &&
                  std::equal(real.begin(), real.end(), predicted.begin()),
              "all_gather: transport result is not bit-identical to the "
              "simulator's");
  check_counters("all_gather");
  return real;
}

std::vector<std::vector<double>> CountingTransport::do_reduce_scatter(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& inputs,
    const std::vector<index_t>& chunk_sizes, CollectiveKind kind) {
  std::vector<std::vector<double>> real =
      inner_->reduce_scatter(group, inputs, chunk_sizes, kind);
  const std::vector<std::vector<double>> predicted =
      static_cast<Transport&>(shadow_).do_reduce_scatter(group, inputs,
                                                         chunk_sizes, kind);
  MTK_REQUIRE(real.size() == predicted.size(),
              "reduce_scatter: chunk count mismatch");
  for (std::size_t i = 0; i < real.size(); ++i) {
    MTK_REQUIRE(real[i].size() == predicted[i].size() &&
                    std::equal(real[i].begin(), real[i].end(),
                               predicted[i].begin()),
                "reduce_scatter: chunk ", i, " is not bit-identical to the "
                "simulator's");
  }
  check_counters("reduce_scatter");
  return real;
}

void CountingTransport::do_run_ranks(const std::function<void(int)>& body) {
  inner_->run_ranks(body);
}

}  // namespace mtk
