#include "src/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "src/support/check.hpp"
#include "src/support/json.hpp"

namespace mtk {
namespace {

// Thread-local tracing state. `rank` is keyed by session generation so a
// worker tagged in one session doesn't leak its rank into the next.
struct ThreadState {
  std::uint64_t generation = 0;
  int rank = -1;
  void* buffer = nullptr;  // TraceSession::ThreadBuffer* for `generation`
};

thread_local ThreadState t_state;

ThreadState& state_for(std::uint64_t generation) {
  if (t_state.generation != generation) {
    t_state.generation = generation;
    t_state.rank = -1;
    t_state.buffer = nullptr;
  }
  return t_state;
}

}  // namespace

const char* to_string(SpanCategory category) {
  switch (category) {
    case SpanCategory::kCollective: return "collective";
    case SpanCategory::kKernel: return "kernel";
    case SpanCategory::kPlanner: return "planner";
    case SpanCategory::kSweep: return "sweep";
    case SpanCategory::kPhase: return "phase";
    case SpanCategory::kOther: return "other";
  }
  return "other";
}

struct TraceSession::ThreadBuffer {
  std::vector<TraceEvent> events;
};

std::atomic<TraceSession*> TraceSession::g_current{nullptr};

TraceSession::TraceSession() = default;

TraceSession::~TraceSession() {
  if (active_) stop();
}

void TraceSession::start() {
  MTK_CHECK(!active_, "TraceSession already started");
  static std::atomic<std::uint64_t> next_generation{1};
  generation_ = next_generation.fetch_add(1, std::memory_order_relaxed);
  active_ = true;
  TraceSession* expected = nullptr;
  MTK_REQUIRE(
      g_current.compare_exchange_strong(expected, this,
                                        std::memory_order_release),
      "another TraceSession is already active");
}

void TraceSession::stop() {
  if (!active_) return;
  active_ = false;
  g_current.store(nullptr, std::memory_order_release);
}

void TraceSession::set_current_rank(int rank) {
  TraceSession* session = current();
  if (session == nullptr) return;
  state_for(session->generation_).rank = rank;
}

int TraceSession::current_rank() {
  TraceSession* session = current();
  if (session == nullptr) return -1;
  return state_for(session->generation_).rank;
}

std::int64_t TraceSession::now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

TraceSession::ThreadBuffer* TraceSession::buffer_for_this_thread() {
  ThreadState& state = state_for(generation_);
  if (state.buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->events.reserve(4096);
    state.buffer = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(state.buffer);
}

void TraceSession::record(const TraceEvent& event) {
  buffer_for_this_thread()->events.push_back(event);
}

std::vector<TraceEvent> TraceSession::events() const {
  MTK_CHECK(!active_, "stop the TraceSession before reading events");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> merged;
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  merged.reserve(total);
  for (const auto& buffer : buffers_) {
    merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
  }
  return merged;
}

void TraceSession::write_chrome_trace(std::FILE* out) const {
  std::vector<TraceEvent> all = events();
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });

  std::set<int> tracks;
  for (const TraceEvent& e : all) tracks.insert(e.track);

  std::fputs("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n", out);
  bool first = true;
  auto comma = [&] {
    if (!first) std::fputs(",\n", out);
    first = false;
  };
  // Metadata first: name each used track so Perfetto shows "rank 0..P-1"
  // lanes instead of raw tids. Track 0 is the orchestrating thread.
  for (const int track : tracks) {
    comma();
    std::fprintf(out,
                 "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                 "\"name\": \"thread_name\", \"args\": {\"name\": ",
                 track);
    if (track == 0) {
      std::fputs("\"orchestrator\"}}", out);
    } else {
      std::fprintf(out, "\"rank %d\"}}", track - 1);
    }
  }
  for (const TraceEvent& e : all) {
    comma();
    std::fprintf(out, "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"cat\": ",
                 e.track);
    write_json_string(out, to_string(e.category));
    std::fputs(", \"name\": ", out);
    write_json_string(out, e.name);
    // Chrome traces use microseconds; keep sub-µs resolution as a fraction.
    std::fprintf(out, ", \"ts\": %.3f, \"dur\": %.3f",
                 static_cast<double>(e.start_ns) / 1000.0,
                 static_cast<double>(e.dur_ns) / 1000.0);
    if (e.arg_count > 0) {
      std::fputs(", \"args\": {", out);
      for (int i = 0; i < e.arg_count; ++i) {
        if (i > 0) std::fputs(", ", out);
        write_json_string(out, e.args[i].name);
        std::fprintf(out, ": %lld", static_cast<long long>(e.args[i].value));
      }
      std::fputc('}', out);
    }
    std::fputc('}', out);
  }
  std::fputs("\n]\n}\n", out);
}

bool TraceSession::write_chrome_trace_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_chrome_trace(f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace mtk
