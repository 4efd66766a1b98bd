#ifndef QPLEX_PERFBENCH_BENCH_H_
#define QPLEX_PERFBENCH_BENCH_H_

// Entry points of qplex_bench, the benchmark's compiled half. run.py drives
// them; see README.md for the protocol.

#include <cstdint>
#include <string>

#include "workload.h"

namespace qplex::bench {

struct ClientConfig {
  int port = 0;
  double seconds = 10;
  /// Directory receiving served.tsv (one row per attempted request) and
  /// client.json (counts, elapsed time, correctness verdict).
  std::string out_dir;
};

/// The closed-loop client: drives `workload.connections` lockstep
/// connections against a running qplex_serve for `config.seconds`, timing
/// every round trip, then checks every answer against the request graph and
/// a BsSolver reference optimum. Returns 0 when every answer is correct.
int RunClient(const Workload& workload, const ClientConfig& config);

struct ReplayConfig {
  std::string served_path;  ///< served.tsv of the serve run to reproduce
  std::string out_path;     ///< per-layer metrics (JSON)
  std::string spans_path;   ///< every recorded span (JSONL)
};

/// The traced in-process replay: re-runs the served answer window (and the
/// side probes) through each layer's public functions under benchmark-side
/// spans, checks it reproduces the served response lines byte for byte, and
/// writes the per-layer metrics. Returns 0 when every line matches.
int RunReplay(const Workload& workload, const Workload& side,
              const ReplayConfig& config);

/// Writes `value` with all significant digits (JSON number).
std::string JsonNumber(double value);

/// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(const std::string& text);

}  // namespace qplex::bench

#endif  // QPLEX_PERFBENCH_BENCH_H_
