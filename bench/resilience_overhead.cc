// Resilience-layer bench. Three phases:
//
//  1. Injection overhead (meta only): the same 16-job batch runs once with
//     the fault injector disabled and once with a site armed so every
//     instrumented call takes the full decision path without ever firing
//     (solver_slow at every-10^9). Wall-clocks are machine-dependent, so
//     both walls and their ratio land in report *meta*, which benchdiff
//     never compares.
//
//  2. Deterministic chaos (captured): 12 bs jobs under --workers 1 with
//     solver_throw armed at every-3rd execution. Under one worker the
//     per-site call order is the submission order, so which executions
//     throw, how many retries run, and the summed solution sizes are all
//     pure functions of the spec — safe to gate. (The svc.phase.backoff_ms
//     histogram is gated too: retry delays are a pure function of
//     (seed, job, slot, attempt), not measured sleeps.)
//
//  3. Degradation (captured): the simulation memory budget is dropped to
//     1 KiB so every qtkp job fails its state-vector budget check and walks
//     the registry fallback chain to bs. Fallback counts and solution sizes
//     are deterministic.
//
// The metrics registry is reset after phase 1 so none of its racy timing
// histograms leak into the gated report.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "quantum/statevector.h"
#include "resilience/fault_injection.h"
#include "svc/registry.h"
#include "svc/scheduler.h"
#include "svc/solver.h"

namespace qplex {
namespace {

/// Submits `requests` on a fresh single-use scheduler, waits for all of
/// them, and returns the summed solution size (every job must end OK).
std::int64_t RunBatch(const svc::SolverRegistry& registry, int workers,
                      const std::vector<svc::SolveRequest>& requests) {
  svc::JobSchedulerOptions options;
  options.num_workers = workers;
  options.enable_cache = false;
  svc::JobScheduler scheduler(&registry, options);
  std::vector<svc::JobId> ids;
  for (const svc::SolveRequest& request : requests) {
    const Result<svc::JobId> id = scheduler.Submit(request);
    QPLEX_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  std::int64_t total_size = 0;
  for (const svc::JobId id : ids) {
    const svc::SolveResponse response = scheduler.Wait(id);
    QPLEX_CHECK(response.status.ok()) << response.status.ToString();
    total_size += response.solution.size;
  }
  return total_size;
}

std::vector<svc::SolveRequest> BsBatch(int jobs) {
  std::vector<svc::SolveRequest> requests;
  for (int i = 0; i < jobs; ++i) {
    svc::SolveRequest request;
    request.graph = RandomGnm(18 + i % 3, 60 + 5 * (i % 3), 1 + i).value();
    request.k = 2 + i % 2;
    request.backend = "bs";
    request.seed = 5;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace
}  // namespace qplex

int main() {
  using namespace qplex;
  svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  resilience::FaultInjector& injector = resilience::FaultInjector::Global();

  std::cout << "Resilience bench\n\n-- phase 1: injection overhead --\n";
  const std::vector<svc::SolveRequest> overhead_batch = BsBatch(16);
  injector.Reset();
  Stopwatch disabled_watch;
  RunBatch(registry, 4, overhead_batch);
  const double disabled_wall = disabled_watch.ElapsedSeconds();

  // Armed but never firing: every instrumented call runs the full
  // should-fire decision, none of them actually injects.
  QPLEX_CHECK(injector.Configure("solver_slow:1000000000:1").ok());
  Stopwatch armed_watch;
  RunBatch(registry, 4, overhead_batch);
  const double armed_wall = armed_watch.ElapsedSeconds();
  injector.Reset();
  const double overhead_ratio =
      disabled_wall > 0 ? armed_wall / disabled_wall : 0;
  std::cout << "  disabled: " << disabled_wall << " s, armed-idle: "
            << armed_wall << " s (ratio " << overhead_ratio << ")\n";

  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();

  std::cout << "\n-- phase 2: deterministic chaos (every 3rd solve throws) "
               "--\n";
  QPLEX_CHECK(injector.Configure("solver_throw:3:1").ok());
  const std::int64_t chaos_size = RunBatch(registry, 1, BsBatch(12));
  injector.Reset();
  obs::MetricsRegistry::Global()
      .GetCounter("bench.chaos_solution_size")
      .Add(chaos_size);
  std::cout << "  12 jobs solved, summed size " << chaos_size << ", faults "
            << obs::MetricsRegistry::Global()
                   .GetCounter("resilience.fault.solver_throw.injected")
                   .Get()
            << ", retries "
            << obs::MetricsRegistry::Global()
                   .GetCounter("svc.retries.scheduled")
                   .Get()
            << "\n";

  std::cout << "\n-- phase 3: degradation under a 1 KiB sim budget --\n";
  SetMaxSimulationBytes(1024);
  std::vector<svc::SolveRequest> degrade_batch;
  for (int i = 0; i < 4; ++i) {
    svc::SolveRequest request;
    request.graph = RandomGnm(10, 25, 21 + i).value();
    request.k = 2;
    request.backend = "qtkp";
    request.options["oracle"] = "predicate";
    degrade_batch.push_back(std::move(request));
  }
  const std::int64_t degraded_size = RunBatch(registry, 1, degrade_batch);
  SetMaxSimulationBytes(0);
  obs::MetricsRegistry::Global()
      .GetCounter("bench.degraded_solution_size")
      .Add(degraded_size);
  std::cout << "  4 qtkp jobs degraded to bs, summed size " << degraded_size
            << ", fallbacks "
            << obs::MetricsRegistry::Global()
                   .GetCounter("svc.fallbacks.taken")
                   .Get()
            << "\n";

  obs::RunReport report("Resilience");
  report.SetMeta("overhead_jobs", 16);
  report.SetMeta("disabled_wall_seconds", disabled_wall);
  report.SetMeta("armed_wall_seconds", armed_wall);
  report.SetMeta("overhead_wall_ratio", overhead_ratio);
  report.Capture();
  bench::EmitBenchReport(report);
  return 0;
}
