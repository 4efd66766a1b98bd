#include "grover/qtkp.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/rng.h"
#include "graph/kplex.h"
#include "grover/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/statevector.h"

namespace qplex {
namespace {

/// With M known the per-attempt failure probability is known exactly, so
/// qTKP raises the attempt budget above max_attempts until the residual
/// misclassification probability drops below this target (capped at 64
/// attempts). Retries are cheap: over-rotated probes (large M) use very few
/// Grover iterations.
constexpr double kTargetError = 1e-6;

/// Computes the marked set (all k-plexes of size >= T) with the requested
/// backend, together with the per-call oracle cost model.
struct OracleEvaluation {
  std::vector<std::uint64_t> marked;
  std::int64_t oracle_cost = 0;
  OracleCostReport costs;
};

Result<OracleEvaluation> EvaluateOracle(const Graph& graph, int k,
                                        int threshold,
                                        const QtkpOptions& options) {
  obs::TraceSpan span("qtkp.oracle_eval");
  OracleEvaluation eval;
  // The circuit is always built: even the predicate backend reports the
  // faithful hardware cost model of one oracle call.
  QPLEX_ASSIGN_OR_RETURN(MkpOracle oracle,
                         MkpOracle::Build(graph, k, threshold, options.oracle));
  eval.oracle_cost = oracle.circuit().TotalCost();
  eval.costs = oracle.CostReport();
  const int n = graph.num_vertices();
  const std::uint64_t space = std::uint64_t{1} << n;
  switch (options.backend) {
    case OracleBackend::kCircuit:
      eval.marked = oracle.MarkedStates();
      break;
    case OracleBackend::kPredicate: {
      const auto adjacency = AdjacencyMasks(graph);
      for (std::uint64_t mask = 0; mask < space; ++mask) {
        if (__builtin_popcountll(mask) >= threshold &&
            IsKPlexMask(adjacency, mask, k)) {
          eval.marked.push_back(mask);
        }
      }
      break;
    }
  }
  return eval;
}

/// Flushes one finished qTKP search into the global registry on scope exit
/// (the search has several success/failure return paths). Runs after
/// `return result;` has moved the result out, so it may only read scalar
/// fields (which the defaulted move leaves intact), never `plex`.
struct QtkpMetricsScope {
  const QtkpResult& result;

  ~QtkpMetricsScope() {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("qtkp.searches").Increment();
    registry.GetCounter("qtkp.attempts").Add(result.attempts);
    registry.GetCounter("qtkp.oracle_calls").Add(result.oracle_calls);
    registry.GetCounter("qtkp.gate_cost").Add(result.gate_cost);
    if (result.found) {
      registry.GetCounter("qtkp.found").Increment();
    }
    registry.GetHistogram("qtkp.iterations_per_attempt")
        .Record(static_cast<double>(result.iterations));
    registry.GetGauge("qtkp.error_probability").Set(result.error_probability);
  }
};

}  // namespace

Result<QtkpResult> RunQtkp(const Graph& graph, int k, int threshold,
                           const QtkpOptions& options) {
  obs::TraceSpan span("qtkp");
  const int n = graph.num_vertices();
  if (n < 1 || n > StateVectorSimulator::kMaxQubits) {
    return Status::InvalidArgument("qTKP simulation requires 1 <= n <= " +
                                   std::to_string(
                                       StateVectorSimulator::kMaxQubits));
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  QPLEX_RETURN_IF_ERROR(CheckSimulationBudget(n));
  QPLEX_ASSIGN_OR_RETURN(OracleEvaluation eval,
                         EvaluateOracle(graph, k, threshold, options));

  QtkpResult result;
  result.num_solutions = static_cast<std::int64_t>(eval.marked.size());
  result.oracle_costs = eval.costs;
  QtkpMetricsScope metrics_scope{result};
  obs::TraceSpan search_span("qtkp.grover_search");

  const auto adjacency = AdjacencyMasks(graph);
  Rng rng(options.seed);
  GroverSimulation grover(n, eval.marked, options.threads);
  const std::int64_t iteration_cost = eval.oracle_cost + DiffusionCost(n);

  if (options.use_bbht) {
    // Boyer–Brassard–Høyer–Tapp: for unknown M, draw the iteration count
    // uniformly from a geometrically growing window. Expected oracle calls
    // stay O(sqrt(N / M)).
    double window = 1.0;
    const double max_window = std::sqrt(std::pow(2.0, n));
    // The budget must be reported even on this path: qMKP's overall error
    // accounting raises the per-attempt failure probability to it, and a
    // zero budget would claim certain failure (x^0 = 1) for every probe.
    result.attempt_budget = options.max_attempts * 8;
    for (int attempt = 0; attempt < result.attempt_budget; ++attempt) {
      const int iterations = static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(std::ceil(window))));
      grover.Reset();
      grover.Run(iterations);
      ++result.attempts;
      result.oracle_calls += iterations;
      result.gate_cost += n + iterations * iteration_cost;
      // Exact failure probability of this attempt's random rotation; the
      // last value stands in as the per-attempt error of the whole search
      // (mirrors the known-M path, where it is constant across attempts).
      result.error_probability = 1.0 - grover.SuccessProbability();
      const std::uint64_t sample = grover.Measure(rng);
      if (__builtin_popcountll(sample) >= threshold &&
          IsKPlexMask(adjacency, sample, k)) {
        result.found = true;
        result.mask = sample;
        result.plex = MaskToBitset(n, sample).ToList();
        result.iterations = iterations;
        return result;
      }
      window = std::min(window * 1.2, max_window);
    }
    return result;  // found == false
  }

  // Known-M schedule: the simulation uses the exact marked count where the
  // paper assumes quantum counting.
  result.iterations = OptimalGroverIterations(n, result.num_solutions);
  // Retry budget: enough verified attempts to push the residual failure
  // probability below kTargetError (the paper's "run c times" argument).
  int attempt_budget = options.max_attempts;
  if (result.num_solutions > 0) {
    const double single_error = 1.0 - TheoreticalSuccessProbability(
                                          n, result.num_solutions,
                                          result.iterations);
    if (single_error > 0) {
      const int needed = static_cast<int>(
          std::ceil(std::log(kTargetError) / std::log(single_error)));
      // At least max_attempts, and capped at 64 — unless the caller asked
      // for more than 64, which raises the cap (std::clamp requires
      // lo <= hi, so clamping to a fixed 64 is UB for max_attempts > 64).
      attempt_budget =
          std::clamp(needed, options.max_attempts,
                     std::max(options.max_attempts, 64));
    }
  }
  result.attempt_budget = attempt_budget;
  for (int attempt = 0; attempt < attempt_budget; ++attempt) {
    grover.Reset();
    grover.Run(result.iterations);
    ++result.attempts;
    result.oracle_calls += result.iterations;
    result.gate_cost += n + result.iterations * iteration_cost;
    result.error_probability = 1.0 - grover.SuccessProbability();
    const std::uint64_t sample = grover.Measure(rng);
    // Classical verification of the measured subset (cheap) — a failed
    // verification triggers a re-run.
    if (__builtin_popcountll(sample) >= threshold &&
        IsKPlexMask(adjacency, sample, k)) {
      result.found = true;
      result.mask = sample;
      result.plex = MaskToBitset(n, sample).ToList();
      return result;
    }
  }
  return result;  // found == false (either M == 0 or all attempts failed)
}

}  // namespace qplex
