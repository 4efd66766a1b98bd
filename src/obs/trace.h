#ifndef QPLEX_OBS_TRACE_H_
#define QPLEX_OBS_TRACE_H_

/// \file
/// The span system. One RAII type, TraceSpan, pushes frames onto one
/// thread-local stack; each frame feeds up to two sinks:
///
///  * the aggregated trace tree (Tracer): name-merged nodes with counts and
///    inclusive durations — the CLI's --verbose-trace and the BENCH "trace"
///    section;
///  * the per-job SpanCollector: structural spans (SpanContext) that flush
///    as "span" event lines, one per distinct path.
///
/// A named solver span ("bs.solve") writes the tree and, when events are on
/// and a request frame is active, is also that frame's structural child. A
/// span built from a SpanContext (the scheduler's racer/attempt/solve/
/// fallback frames) feeds the collector alone.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace qplex::obs {

/// One aggregated node of the trace tree: spans with the same name under the
/// same parent merge (count incremented, durations summed), so a solver that
/// probes qTKP eight times shows one "qtkp" child with count = 8 rather than
/// eight siblings.
struct TraceNodeSnapshot {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_nanos = 0;  ///< inclusive (children's time counted)
  std::vector<TraceNodeSnapshot> children;

  double TotalSeconds() const { return total_nanos * 1e-9; }
  /// Time not attributed to any child span.
  std::int64_t SelfNanos() const;
};

namespace internal {
struct TraceNode;
}  // namespace internal

/// Owns a trace tree built from nested TraceSpan frames. Open/close take a
/// mutex, which is fine at span granularity (solver call, probe, sweep
/// batch — never per inner-loop step). A span opened on a thread with no
/// enclosing span of the same tracer parents at the root.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Drops all recorded spans. Must not be called while spans are open.
  void Reset();

  TraceNodeSnapshot Snapshot() const;

  /// The process-wide tracer solver spans record into by default.
  static Tracer& Global();

 private:
  friend class TraceSpan;

  /// The child `name` of `parent` (the root when null), created on first use.
  internal::TraceNode* Open(internal::TraceNode* parent, std::string_view name);
  void Close(internal::TraceNode* node, std::int64_t elapsed_nanos);

  mutable std::mutex mutex_;
  std::unique_ptr<internal::TraceNode> root_;
};

/// FNV-1a 64-bit hash: the id-derivation primitive for trace and span ids.
std::uint64_t Fnv1a64(std::string_view text);

/// 16-hex-digit lowercase rendering of an id (the wire form in span events).
std::string IdHex(std::uint64_t id);

/// One node of a request-scoped trace. Ids are *structural*: pure functions
/// of (trace id, path), so a retry attempt, a fallback hop, or a solver span
/// recomputes the same span id on any worker thread without shared
/// counters — and two same-seed runs emit byte-identical id sets, which is
/// what lets CI diff reconstructed trace trees.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span of the trace
  std::string trace_hex;        ///< cached IdHex(trace_id)
  std::string path;             ///< e.g. "job/racer@bs/attempt@1/solve"
  std::string name;             ///< last path element ("attempt@1", "solve")
};

/// Trace id of one scheduler job: a hash of the caller's label and the job
/// id, so it is recomputable anywhere the job is visible.
std::uint64_t DeriveTraceId(std::string_view label, std::int64_t job_id);

/// The root span of a trace (parent id 0, path = name).
SpanContext RootSpan(std::uint64_t trace_id, std::string_view name);

/// A child span. The path element is `name` or "name@qualifier"; the span id
/// is the hash of "<trace hex>:<path>".
SpanContext ChildSpan(const SpanContext& parent, std::string_view name,
                      std::string_view qualifier = {});

/// Emits one "span" event line (trace/span/parent/name/path/count/dur_ms)
/// into the global event sink; no-op when none is installed.
void EmitSpanEvent(const SpanContext& context, std::int64_t count,
                   double total_ms);

/// Aggregates closed spans per structural path (count + wall-time total) so
/// one event line per distinct path is emitted instead of one per close — a
/// solver evaluating its oracle 10^4 times inside an attempt still costs one
/// "span" line. Not thread-safe by design: the scheduler owns one collector
/// per backend execution on the worker thread that runs it.
class SpanCollector {
 public:
  SpanCollector() = default;
  ~SpanCollector();  // flushes anything still buffered

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void Record(const SpanContext& context, double elapsed_ms);

  /// Emits one "span" event per aggregated path (path-sorted, so flush order
  /// is deterministic) and clears the collector.
  void Flush();

  std::size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    SpanContext context;
    std::int64_t count = 0;
    double total_ms = 0;
  };
  std::map<std::string, Node> nodes_;
};

/// RAII span: one frame on this thread's span stack, timed from
/// construction to destruction. The stack is an intrusive list of live
/// frames, so pushing a frame never allocates. Frames are strictly nested,
/// and worker threads start with an empty stack — which is exactly what
/// keeps solver-internal pools from attaching spans to a request they are
/// not serving.
class TraceSpan {
 public:
  /// A solver span: the node `name` in `tracer`'s tree, under this thread's
  /// innermost span of the same tracer. When events are on and a request
  /// frame is active, the frame is also the structural child `name` of it.
  explicit TraceSpan(std::string_view name, Tracer& tracer = Tracer::Global());

  /// A request frame carrying `context` (none: the frame is inert), recorded
  /// into the active collector when it closes. Passing `collector` makes it
  /// the active collector for this frame and everything nested in it.
  explicit TraceSpan(std::optional<SpanContext> context,
                     SpanCollector* collector = nullptr);

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// The innermost request frame's context on this thread, or nullptr
  /// outside any request.
  static const SpanContext* Current();
  /// The collector request frames on this thread record into, or nullptr.
  static SpanCollector* CurrentCollector();
  /// The child `name[@qualifier]` of Current(), or none outside a request.
  static std::optional<SpanContext> ChildOfCurrent(
      std::string_view name, std::string_view qualifier = {});
  /// Records a child of Current() that already elapsed (a queue wait, a
  /// computed backoff) straight into the active collector; no-op outside a
  /// request.
  static void RecordChild(std::string_view name, double elapsed_ms,
                          std::string_view qualifier = {});

 private:
  /// The tree node of the innermost frame, from `frame` outward, recording
  /// into `tracer`; null (the root) when there is none. Keyed per tracer so
  /// a test-local Tracer never interleaves with the global one.
  static internal::TraceNode* TreeParent(const TraceSpan* frame,
                                         const Tracer& tracer);

  TraceSpan* const outer_;  // the frame this one is nested in, or null
  Tracer* const tracer_ = nullptr;
  internal::TraceNode* const node_ = nullptr;
  const std::optional<SpanContext> context_;
  const SpanContext* const request_;  // innermost context here, or null
  SpanCollector* const collector_;    // active collector here, or null
  Stopwatch watch_;
};

/// The trace id (16 hex digits) of the request frame active on this thread,
/// or empty outside any request. ProgressHeartbeat keys its throttle by it.
std::string_view CurrentTraceToken();

/// Renders a snapshot as an indented text tree with counts and timings —
/// the CLI's --verbose-trace output.
std::string FormatTraceTree(const TraceNodeSnapshot& root);

}  // namespace qplex::obs

#endif  // QPLEX_OBS_TRACE_H_
