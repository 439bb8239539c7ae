// In-memory span recorder of the benchmark's traced run.
//
// A span is one call into a layer, named "<layer>.<call>", with start and
// end on one steady clock, the span that caused it and the request it
// belongs to. Spans stay in memory and are written out once, as Chrome
// trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  double start = 0.0;     ///< seconds since the tracer's epoch
  double end = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the top
  std::int64_t request = 0;
};

class Tracer {
 public:
  /// RAII span: opens at construction, closes at destruction, and is the
  /// parent of every span opened while it is open. Single-threaded.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  Tracer() : epoch_(clock::now()) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }
  [[nodiscard]] double at(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  void set_request(std::int64_t id) { request_ = id; }

  /// Records an already-timed span (e.g. from server-reported durations).
  std::int32_t record(const char* name, double start, double end, std::int32_t parent,
                      std::int64_t request);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON ("X" events, one row
  /// per request), viewable offline in Perfetto or chrome://tracing.
  void write_chrome_trace(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;

  clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::int64_t request_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace bench
