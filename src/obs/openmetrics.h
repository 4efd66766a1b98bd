#ifndef QPLEX_OBS_OPENMETRICS_H_
#define QPLEX_OBS_OPENMETRICS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace qplex::obs {

/// Renders a metric name into the OpenMetrics charset: characters outside
/// [a-zA-Z0-9_:] become '_', and the result is prefixed with "qplex_" (which
/// also guarantees a legal leading character).
std::string OpenMetricsName(std::string_view name);

/// Renders a whole registry snapshot as OpenMetrics text exposition:
///
///   - counters  -> `# TYPE qplex_<name> counter` + `qplex_<name>_total <v>`
///   - gauges    -> `# TYPE qplex_<name> gauge` + `qplex_<name> <v>`
///   - histograms-> cumulative `_bucket{le="..."}` samples (le = the bucket's
///                  exclusive upper bound, then `le="+Inf"`), plus `_sum` and
///                  `_count`
///
/// ends with the mandatory `# EOF` terminator. Doubles print with %.17g so a
/// write -> parse round trip is exact.
std::string RenderOpenMetrics(const MetricsSnapshot& snapshot);

/// Writes RenderOpenMetrics of the global registry's snapshot to `path`
/// atomically (tmp file + rename), so a scraper tailing the path never sees a
/// torn exposition.
Status WriteOpenMetricsSnapshot(const std::string& path);

/// One parsed sample line: metric name (with suffix), optional label pairs in
/// source order, and the value.
struct OpenMetricsSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;

  const std::string* FindLabel(std::string_view key) const;
};

/// A parsed exposition: family name -> declared type, plus every sample.
struct OpenMetricsDoc {
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::vector<OpenMetricsSample> samples;

  /// Sum convenience: the value of the single sample named `name` with no
  /// labels, or nullopt-like NaN when absent. Used by round-trip tests.
  const OpenMetricsSample* FindSample(std::string_view name) const;
};

/// Parses OpenMetrics text (the subset RenderOpenMetrics emits: `# TYPE` /
/// `# EOF` comment lines and `name{labels} value` samples). Rejects lines it
/// cannot understand.
Result<OpenMetricsDoc> ParseOpenMetrics(std::string_view text);

/// Structural validity check used by CI: parses, then verifies that every
/// sample's family has a preceding TYPE declaration, names stay inside the
/// charset, histogram bucket counts are cumulative (monotone over ascending
/// `le`), the `+Inf` bucket equals `_count`, and the document ends with
/// `# EOF`. Returns OK or the first violation.
Status CheckOpenMetrics(std::string_view text);

}  // namespace qplex::obs

#endif  // QPLEX_OBS_OPENMETRICS_H_
