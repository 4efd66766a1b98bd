#ifndef QPLEX_PERFBENCH_WORKLOAD_H_
#define QPLEX_PERFBENCH_WORKLOAD_H_

// Seeded request streams for the three benchmark workloads. Inputs come
// from the benchmark's own generator (SplitMix64 + G(n, m) sampling), not
// from the program's, so a change to the program never changes what the
// benchmark sends.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace qplex::bench {

/// One generated graph. Several requests may share it (cache repeats).
struct Instance {
  int n = 0;
  std::vector<std::pair<Vertex, Vertex>> edges;
};

/// One request of the stream. A repeat shares instance, backend, k, seed
/// and options with an earlier request and differs only in `id`.
struct Request {
  std::string id;
  int instance = 0;
  std::string backend;
  int k = 2;
  std::uint64_t seed = 1;
  std::map<std::string, std::string> options;  ///< values as JSON tokens
};

struct Workload {
  std::string name;
  std::vector<Instance> instances;
  std::vector<Request> requests;
  int connections = 2;    ///< lockstep client connections
  int answer_window = 0;  ///< leading requests covered by digest and quality
  int min_requests = 0;   ///< a run completing fewer is invalid
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the first `count` requests of a workload's stream. The stream is
/// a pure function of (name, seed), so a longer pool extends a shorter one.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, int count,
                  Workload* out);

/// Pool size for a run of `seconds`: a few times what the current code
/// completes, so the closed loop does not run dry.
int PoolSize(const std::string& name, double seconds);

/// The exact JSONL text sent to the server for `request` (no newline).
/// Rendered on demand, so a long pool stays small in memory.
std::string RequestLine(const Workload& workload, const Request& request);

/// Materialises an instance as a program graph.
Graph ToGraph(const Instance& instance);

/// The leading request of each backend that `name` does not send, taken
/// from the other workloads' streams under the same seed. The traced run
/// times those layers on them, so every per-layer metric is measured in
/// every traced run; they are never sent to the server.
Workload SideProbes(const std::string& name, std::uint64_t seed);

}  // namespace qplex::bench

#endif  // QPLEX_PERFBENCH_WORKLOAD_H_
