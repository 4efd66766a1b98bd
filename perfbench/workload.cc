#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace qplex::bench {
namespace {

/// SplitMix64: small, fast and fully specified, so the streams never depend
/// on the program's own RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] (modulo bias is irrelevant at these widths).
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// G(n, m): m distinct edges by a partial Fisher-Yates over all pairs.
Instance Gnm(int n, int m, SplitMix& rng) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      pairs.emplace_back(u, v);
    }
  }
  m = std::min<int>(m, static_cast<int>(pairs.size()));
  for (int i = 0; i < m; ++i) {
    const int j = rng.Range(i, static_cast<int>(pairs.size()) - 1);
    std::swap(pairs[i], pairs[j]);
  }
  pairs.resize(m);
  std::sort(pairs.begin(), pairs.end());
  return Instance{n, std::move(pairs)};
}

/// Edge count for a density given in percent.
int EdgesAtDensity(int n, int percent) {
  return static_cast<int>(std::lround(percent / 100.0 * n * (n - 1) / 2));
}

std::string RenderLine(const Request& request, const Instance& instance) {
  std::string line = "{\"id\":\"" + request.id + "\",\"backend\":\"" +
                     request.backend + "\",\"k\":" +
                     std::to_string(request.k) +
                     ",\"seed\":" + std::to_string(request.seed);
  if (!request.options.empty()) {
    line += ",\"options\":{";
    bool first = true;
    for (const auto& [key, value] : request.options) {
      line += (first ? "\"" : ",\"") + key + "\":" + value;
      first = false;
    }
    line += "}";
  }
  line += ",\"graph\":{\"n\":" + std::to_string(instance.n) + ",\"edges\":[";
  for (std::size_t i = 0; i < instance.edges.size(); ++i) {
    line += (i == 0 ? "[" : ",[") + std::to_string(instance.edges[i].first) +
            "," + std::to_string(instance.edges[i].second) + "]";
  }
  line += "]}}";
  return line;
}

std::uint64_t StreamSeed(const std::string& name, std::uint64_t seed) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : name) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash ^ (seed * 0x9e3779b97f4a7c15ULL);
}

/// Appends a fresh request on a new instance.
void AddFresh(Workload* w, Instance instance, std::string backend, int k,
              std::uint64_t seed, std::map<std::string, std::string> options) {
  Request request;
  request.id = "r" + std::to_string(w->requests.size());
  request.instance = static_cast<int>(w->instances.size());
  request.backend = std::move(backend);
  request.k = k;
  request.seed = seed;
  request.options = std::move(options);
  w->instances.push_back(std::move(instance));
  w->requests.push_back(std::move(request));
}

// gate_qmkp: qMKP on the literal oracle circuit. Sizes are stratified, not
// sampled, so every run carries the same mix: each block of ten holds
// 2x n=9, 2x n=10, 3x n=11 and 3x n=12 (the median falls inside the n=11
// class and p90 inside the n=12 class, not on a class boundary); k
// alternates per block and m walks [2n, 3n]. The graphs themselves are
// drawn from the seed.
void GateQmkp(std::uint64_t seed, int count, Workload* w) {
  static constexpr int kPattern[10] = {9, 11, 12, 10, 11, 12, 9, 11, 12, 10};
  SplitMix rng(StreamSeed("gate_qmkp", seed));
  w->connections = 2;
  w->answer_window = 40;
  w->min_requests = 100;
  for (int i = 0; i < count; ++i) {
    const int block = i / 10;
    const int n = kPattern[i % 10];
    Instance instance = Gnm(n, 2 * n + (block * 7 + i) % (n + 1), rng);
    const int k = 2 + block % 2;
    const std::uint64_t request_seed = rng.Range(1, 1000000);
    AddFresh(w, std::move(instance), "qmkp", k, request_seed,
             {{"oracle", "\"circuit\""}});
  }
}

// qubo_solvers: the qaMKP annealers on D-style graphs (n=15-30, density
// 50-70%) with fixed budgets, plus MILP to proven optimality on n=10-11.
// The block of 13 interleaves both halves so each of the two lockstep
// connections sees the same mix. Per backend, n walks 15..30 and k
// alternates every 16 requests, so every run carries the same size mix;
// MILP edge counts are narrow because B&B time grows by orders of magnitude
// per missing complement edge.
void QuboSolvers(std::uint64_t seed, int count, Workload* w) {
  static const char* const kBlock[13] = {
      "sa",  "milp10", "pt", "milp10", "pia",    "hybrid", "milp10",
      "sa",  "milp11", "pt", "milp10", "pia",    "hybrid"};
  static const std::map<std::string, std::map<std::string, std::string>>
      kBudgets = {
          {"sa", {{"shots", "64"}, {"sweeps", "8"}}},
          {"pt", {{"rounds", "64"}, {"replicas", "8"}}},
          {"pia", {{"shots", "100"}, {"replicas", "16"}}},
          {"hybrid", {{"restarts", "64"}}},
          {"milp", {}},
      };
  SplitMix rng(StreamSeed("qubo_solvers", seed));
  std::map<std::string, int> seen;  // requests per block slot so far
  w->connections = 2;
  w->answer_window = 520;
  w->min_requests = 520;
  for (int i = 0; i < count; ++i) {
    const std::string slot = kBlock[i % 13];
    const int nth = seen[slot]++;
    Instance instance;
    std::string backend = slot;
    int k = 2;
    if (slot == "milp10") {
      backend = "milp";
      instance = Gnm(10, 39 + nth % 3, rng);
    } else if (slot == "milp11") {
      backend = "milp";
      instance = Gnm(11, 48, rng);
    } else {
      const int n = 15 + (nth * 5) % 16;
      instance = Gnm(n, EdgesAtDensity(n, rng.Range(50, 70)), rng);
      k = 2 + (nth / 16) % 2;
    }
    const std::uint64_t request_seed = rng.Range(1, 1000000);
    AddFresh(w, std::move(instance), backend, k, request_seed,
             kBudgets.at(backend));
  }
}

// serve_mix: small BS/GRASP solves where serving overhead is comparable to
// solve time. About half the requests repeat an earlier one, half of those
// within the 256-entry cache's reach and half beyond it. One fresh request
// in 25 is a long GRASP run (256 iterations on n=44-48, a few ms of steady
// work), so the top percent of round trips is a population of its own
// rather than the ragged edge of the small requests' distribution.
void ServeMix(std::uint64_t seed, int count, Workload* w) {
  SplitMix rng(StreamSeed("serve_mix", seed));
  w->connections = 4;
  w->answer_window = 2000;
  w->min_requests = 2000;
  int fresh = 0;
  for (int i = 0; i < count; ++i) {
    const bool repeat = rng.Range(0, 1) == 1;
    const int distance =
        rng.Range(0, 1) == 1 ? rng.Range(1, 300) : rng.Range(700, 4000);
    if (repeat && distance <= i) {
      Request request = w->requests[i - distance];
      request.id = "r" + std::to_string(i);
      w->requests.push_back(std::move(request));
      continue;
    }
    const bool large = fresh++ % 14 == 7;
    const int n = large ? rng.Range(44, 48) : rng.Range(16, 48);
    Instance instance = Gnm(n, EdgesAtDensity(n, rng.Range(8, 16)), rng);
    const bool bs = !large && rng.Range(0, 1) == 1;
    const int k = rng.Range(2, 3);
    const std::uint64_t request_seed = rng.Range(1, 1000000);
    AddFresh(w, std::move(instance), bs ? "bs" : "grasp", k, request_seed,
             bs ? std::map<std::string, std::string>{}
                : std::map<std::string, std::string>{
                      {"iterations", large ? "160" : "16"}});
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names =
      new std::vector<std::string>{"gate_qmkp", "qubo_solvers", "serve_mix"};
  return *names;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, int count,
                  Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "gate_qmkp") {
    GateQmkp(seed, count, out);
  } else if (name == "qubo_solvers") {
    QuboSolvers(seed, count, out);
  } else if (name == "serve_mix") {
    ServeMix(seed, count, out);
  } else {
    return false;
  }
  return true;
}

int PoolSize(const std::string& name, double seconds) {
  // Requests per second the seed code completes, rounded up.
  const double rate =
      name == "gate_qmkp" ? 15 : name == "qubo_solvers" ? 40 : 1500;
  return static_cast<int>(std::ceil(3 * rate * std::max(seconds, 1.0))) + 100;
}

std::string RequestLine(const Workload& workload, const Request& request) {
  return RenderLine(request, workload.instances[request.instance]);
}

Graph ToGraph(const Instance& instance) {
  return MakeGraph(instance.n, instance.edges).value();
}

Workload SideProbes(const std::string& name, std::uint64_t seed) {
  Workload own;
  MakeWorkload(name, seed, 64, &own);
  std::set<std::string> covered;
  for (const Request& request : own.requests) {
    covered.insert(request.backend);
  }
  Workload probes;
  probes.name = name + ".side";
  for (const std::string& other : WorkloadNames()) {
    if (other == name) {
      continue;
    }
    Workload stream;
    MakeWorkload(other, seed, 64, &stream);
    for (Request request : stream.requests) {
      if (!covered.insert(request.backend).second) {
        continue;
      }
      request.id = "side" + std::to_string(probes.requests.size());
      const Instance& instance = stream.instances[request.instance];
      request.instance = static_cast<int>(probes.instances.size());
      probes.instances.push_back(instance);
      probes.requests.push_back(std::move(request));
    }
  }
  return probes;
}

}  // namespace qplex::bench
