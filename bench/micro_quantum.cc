// Microbenchmarks of the quantum substrate: state-vector gate application,
// Grover iterations, and literal-oracle basis-state execution (one state,
// and a whole marked set at 64 states per pass).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "common/rng.h"
#include "graph/generators.h"
#include "grover/engine.h"
#include "oracle/mkp_oracle.h"
#include "quantum/basis_sim.h"
#include "quantum/statevector.h"

namespace qplex {
namespace {

void BM_StateVectorHadamardLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVectorSimulator sim(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) {
      sim.ApplyH(q);
    }
    benchmark::DoNotOptimize(sim.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StateVectorHadamardLayer)->Arg(10)->Arg(14)->Arg(18);

void BM_GroverIteration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GroverSimulation grover(n, {1});
  for (auto _ : state) {
    grover.Step();
    benchmark::DoNotOptimize(grover.steps());
  }
}
BENCHMARK(BM_GroverIteration)->Arg(10)->Arg(14)->Arg(18);

void BM_OracleBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 3).value();
  for (auto _ : state) {
    auto oracle = MkpOracle::Build(graph, 2, n / 2);
    benchmark::DoNotOptimize(oracle.ok());
  }
}
BENCHMARK(BM_OracleBuild)->Arg(8)->Arg(10)->Arg(12);

void BM_OracleEvaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 3).value();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, n / 2).value();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.Evaluate(rng.Next() & ((1u << n) - 1)));
  }
  state.counters["gates"] = static_cast<double>(oracle.circuit().num_gates());
}
BENCHMARK(BM_OracleEvaluate)->Arg(8)->Arg(10)->Arg(12);

/// The whole marked set of one qMKP probe: 2^n basis states, 64 per pass over
/// the circuit. `ns_per_gate_state` is wall time over gates x 2^n.
void BM_OracleMarkedStates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 3).value();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, n / 2).value();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MarkedStates().size());
  }
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double gates = static_cast<double>(oracle.circuit().num_gates());
  state.counters["gates"] = gates;
  state.counters["ns_per_gate_state"] =
      wall_ns / (static_cast<double>(state.iterations()) * gates *
                 static_cast<double>(std::uint64_t{1} << n));
}
BENCHMARK(BM_OracleMarkedStates)->Arg(8)->Arg(10)->Arg(12);

}  // namespace
}  // namespace qplex

BENCHMARK_MAIN();
