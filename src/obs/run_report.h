#ifndef QPLEX_OBS_RUN_REPORT_H_
#define QPLEX_OBS_RUN_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex::obs {

/// A structured, machine-readable record of one solver or bench run: free-form
/// metadata, a metrics snapshot (counters / gauges / histograms) and
/// the nested span-timing tree. Exported as JSON (schema below) or as
/// AsciiTable text for humans.
///
/// JSON schema (version 1):
///   {
///     "report": "<name>", "schema_version": 1,
///     "meta": { ... caller-provided key/values ... },
///     "counters":   { "<metric>": <int>, ... },
///     "gauges":     { "<metric>": <double>, ... },
///     "histograms": { "<metric>": {"count","sum","min","max","mean",
///                                  "p50","p90","p99",
///                                  "buckets": [[lower_bound, count], ...]} },
///     "trace":      { "name","count","total_seconds","children":[...] }
///   }
class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  /// Attaches caller metadata (algorithm, dataset, k, seed, wall time...).
  void SetMeta(std::string key, JsonValue value);

  /// Snapshots the global metrics registry and tracer into this report.
  void Capture() {
    Capture(MetricsRegistry::Global(), Tracer::Global());
  }
  void Capture(const MetricsRegistry& registry, const Tracer& tracer);

  const std::string& name() const { return name_; }
  const MetricsSnapshot& metrics() const { return metrics_; }
  const TraceNodeSnapshot& trace() const { return trace_; }

  JsonValue ToJson() const;
  std::string ToJsonString(int indent = 2) const {
    return ToJson().Dump(indent);
  }

  /// Human-readable rendering: metadata, counter/gauge tables, histogram
  /// summaries, and the indented trace tree.
  std::string ToPrettyString() const;

  /// Writes the JSON form (pretty, trailing newline) to `path`; "-" writes
  /// to stdout.
  Status WriteJsonFile(const std::string& path, int indent = 2) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, JsonValue>> meta_;
  MetricsSnapshot metrics_;
  TraceNodeSnapshot trace_;
};

}  // namespace qplex::obs

#endif  // QPLEX_OBS_RUN_REPORT_H_
