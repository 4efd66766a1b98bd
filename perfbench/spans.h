#ifndef QPLEX_PERFBENCH_SPANS_H_
#define QPLEX_PERFBENCH_SPANS_H_

// The traced run's span recorder. Spans are opened and closed around calls
// into the program's layers from the benchmark's own code, kept in memory
// until the run ends, then written out and aggregated. Single-threaded: the
// replay runs one request at a time, so a span's children never overlap and
// its self time is its duration minus the sum of its children's.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qplex::bench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index into the recorder, -1 for a root
  std::int64_t request = -1;
  std::int64_t child_ns = 0;  ///< summed durations of direct children

  std::int64_t duration_ns() const { return end_ns - start_ns; }
  std::int64_t self_ns() const { return duration_ns() - child_ns; }
};

class SpanRecorder {
 public:
  int Open(std::string name, std::int64_t request) {
    Span span;
    span.name = std::move(name);
    span.parent = current_;
    span.request = request;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void Close(int index) {
    Span& span = spans_[index];
    span.end_ns = Now();
    if (span.parent >= 0) {
      spans_[span.parent].child_ns += span.duration_ns();
    }
    current_ = span.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::int64_t request)
      : recorder_(recorder), index_(recorder->Open(std::move(name), request)) {}
  ~ScopedSpan() { recorder_->Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

inline std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_ns += span.duration_ns();
    entry.self_ns += span.self_ns();
  }
  return totals;
}

}  // namespace qplex::bench

#endif  // QPLEX_PERFBENCH_SPANS_H_
