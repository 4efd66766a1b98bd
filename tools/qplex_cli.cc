// qplex command-line solver: finds the maximum k-plex of a graph given in
// DIMACS or edge-list format with any backend qplex_serve registers, run
// through the same svc adapter a served request uses.
//
//   qplex_cli --input graph.col [--format dimacs|edgelist] [--k 2]
//             [--algorithm <backend>|qamkp] [--seed 1]
//             [--threads N] [--metrics-json <file|->] [--metrics-prom <file>]
//             [--verbose-trace]
//             [--events <file|->] [--progress-interval-ms N]
//
// With --input - the graph is read from stdin. --metrics-json writes a
// structured run report (counters, histograms, trace tree) after solving;
// --metrics-prom writes the same registry as OpenMetrics text exposition;
// --verbose-trace prints the nested span timings to stderr. --events streams
// structured JSONL events (run lifecycle + rate-limited solver progress
// heartbeats) while the solve is running; --progress-interval-ms sets the
// heartbeat spacing (default 250, must be >= 1). --threads parallelizes the
// state-vector kernels of the quantum solvers (qmkp, qtkp); results are
// bit-identical for any thread count. --algorithm qamkp is the paper's name
// for the hybrid backend.

#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "quantum/statevector.h"
#include "resilience/fault_injection.h"
#include "svc/registry.h"
#include "svc/solver.h"

namespace qplex {
namespace {

struct CliOptions {
  std::string input;
  std::string format = "dimacs";
  GraphParser parse_graph = &ParseDimacs;  // the parser --format names
  std::string algorithm = "bs";
  int k = 2;
  int threads = 1;
  std::uint64_t seed = 1;
  std::string metrics_json;  // empty = no report; "-" = stdout
  std::string metrics_prom;  // empty = no OpenMetrics exposition
  bool verbose_trace = false;
  std::string events;  // empty = no event stream; "-" = stdout
  int progress_interval_ms = obs::EventSink::kDefaultProgressIntervalMs;
  std::string fault_spec;           // arms the deterministic fault injector
  std::uint64_t max_sim_bytes = 0;  // 0 = keep the default 4 GiB budget
};

void PrintUsage() {
  std::cerr << "usage: qplex_cli --input <file|-> [--format dimacs|edgelist]\n"
               "                 [--k <int>] [--algorithm <backend>] "
               "[--seed <int>]\n"
               "                 [--threads <int>] [--metrics-json <file|->] "
               "[--metrics-prom <file>]\n"
               "                 [--verbose-trace]\n"
               "                 [--events <file|->] "
               "[--progress-interval-ms <int>]\n"
               "                 [--fault-spec site:rate[:seed]] "
               "[--max-sim-bytes <int>]\n"
               "backends:";
  for (const std::string& name : svc::MakeBuiltinRegistry().Names()) {
    std::cerr << " " << name;
  }
  std::cerr << " (qamkp = hybrid)\n";
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  FlagParser flags;
  flags.String("--input", &options.input);
  flags.Custom("--format", [&](const std::string& value) -> Status {
    QPLEX_ASSIGN_OR_RETURN(options.parse_graph, GraphFormatParser(value));
    options.format = value;
    return Status::Ok();
  });
  flags.String("--algorithm", &options.algorithm);
  flags.Number("--k", &options.k, 1);
  flags.Number("--seed", &options.seed);
  flags.Number("--threads", &options.threads, 1);
  flags.String("--metrics-json", &options.metrics_json);
  flags.String("--metrics-prom", &options.metrics_prom);
  flags.Switch("--verbose-trace", &options.verbose_trace);
  flags.String("--events", &options.events);
  flags.Number("--progress-interval-ms", &options.progress_interval_ms, 1);
  flags.Custom("--fault-spec", [&](const std::string& value) {
    options.fault_spec += (options.fault_spec.empty() ? "" : ",") + value;
    return Status::Ok();
  });
  flags.Number("--max-sim-bytes", &options.max_sim_bytes, std::uint64_t{1});
  QPLEX_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (options.input.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  return options;
}

Result<Graph> LoadGraph(const CliOptions& options) {
  if (options.input != "-") {
    return LoadGraphFile(options.input, options.parse_graph);
  }
  std::ostringstream buffer;
  buffer << std::cin.rdbuf();
  return options.parse_graph(buffer.str());
}

/// Runs the registered backend `--algorithm` names on the graph, exactly as
/// qplex_serve would but without its scheduler: no budget, no cancellation
/// and no svc.job span, so the trace tree holds the solver's spans alone.
/// The incumbent events carry no trace/path; qplex_obs --convergence lists
/// them as "(direct)".
Result<MkpSolution> Solve(const CliOptions& options, Graph graph) {
  const svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  svc::SolveRequest request;
  request.backend = options.algorithm == "qamkp" ? "hybrid" : options.algorithm;
  const svc::Solver* solver = registry.Get(request.backend);
  if (solver == nullptr) {
    return Status::InvalidArgument("unknown algorithm: " + options.algorithm);
  }
  request.graph = std::move(graph);
  request.k = options.k;
  request.seed = options.seed;
  request.options["threads"] = std::to_string(options.threads);
  QPLEX_ASSIGN_OR_RETURN(svc::SolveOutcome outcome,
                         solver->Solve(request, svc::SolveContext{}));
  return std::move(outcome.solution);
}

/// Builds the structured run report after a solve; meta fields capture the
/// invocation, the instance, and the headline result.
obs::RunReport BuildReport(const CliOptions& options, const Graph& graph,
                           const MkpSolution& solution, double wall_seconds) {
  obs::RunReport report("qplex_cli");
  report.SetMeta("input", options.input);
  report.SetMeta("format", options.format);
  report.SetMeta("algorithm", options.algorithm);
  report.SetMeta("k", options.k);
  report.SetMeta("seed", static_cast<std::int64_t>(options.seed));
  report.SetMeta("threads", options.threads);
  report.SetMeta("num_vertices", graph.num_vertices());
  report.SetMeta("num_edges", graph.num_edges());
  report.SetMeta("solution_size", solution.size);
  report.SetMeta("wall_seconds", wall_seconds);
  report.Capture();
  return report;
}

int Main(int argc, char** argv) {
  const Result<CliOptions> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    PrintUsage();
    return 2;
  }
  if (!options.value().fault_spec.empty()) {
    const Status armed = resilience::FaultInjector::Global().Configure(
        options.value().fault_spec);
    if (!armed.ok()) {
      std::cerr << armed << "\n";
      PrintUsage();
      return 2;
    }
  }
  if (options.value().max_sim_bytes > 0) {
    SetMaxSimulationBytes(options.value().max_sim_bytes);
  }
  const Result<Graph> graph = LoadGraph(options.value());
  if (!graph.ok()) {
    std::cerr << "failed to load graph: " << graph.status() << "\n";
    return 1;
  }
  std::cerr << "loaded " << graph.value().ToString() << ", solving k="
            << options.value().k << " via " << options.value().algorithm
            << "\n";

  // Structured JSONL event stream: opened before the solve so every solver
  // heartbeat lands in it, uninstalled before exit (RAII keeps the error
  // paths honest).
  std::unique_ptr<obs::EventSink> events;
  if (!options.value().events.empty()) {
    Result<std::unique_ptr<obs::EventSink>> opened = obs::EventSink::Open(
        options.value().events, options.value().progress_interval_ms);
    if (!opened.ok()) {
      std::cerr << "failed to open event stream " << options.value().events
                << ": " << opened.status() << "\n";
      return 1;
    }
    events = std::move(opened).value();
    obs::EventSink::InstallGlobal(events.get());
  }
  struct SinkUninstaller {
    ~SinkUninstaller() { obs::EventSink::InstallGlobal(nullptr); }
  } uninstaller;

  // Start metric collection from a clean slate so the report describes this
  // solve only, not process history.
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();
  // Every lifecycle emission sits behind EventsEnabled() so a run without
  // --events never assembles the payload fields at all.
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "cli", "run_start",
                   {{"input", options.value().input},
                    {"algorithm", options.value().algorithm},
                    {"k", options.value().k},
                    {"seed", static_cast<std::int64_t>(options.value().seed)},
                    {"num_vertices", graph.value().num_vertices()},
                    {"num_edges", graph.value().num_edges()}});
  }
  Stopwatch watch;
  const Result<MkpSolution> solution = Solve(options.value(), graph.value());
  const double wall_seconds = watch.ElapsedSeconds();
  if (!solution.ok()) {
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kWarn, "cli", "run_error",
                     {{"status", solution.status().ToString()},
                      {"wall_seconds", wall_seconds}});
    }
    std::cerr << "solver failed: " << solution.status() << "\n";
    return 1;
  }
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "cli", "run_end",
                   {{"solution_size", solution.value().size},
                    {"wall_seconds", wall_seconds}});
  }
  std::cout << "size " << solution.value().size << "\nmembers";
  for (Vertex v : solution.value().members) {
    std::cout << " " << v;
  }
  std::cout << "\n";

  if (!options.value().metrics_json.empty() || options.value().verbose_trace) {
    const obs::RunReport report = BuildReport(
        options.value(), graph.value(), solution.value(), wall_seconds);
    if (options.value().verbose_trace) {
      std::cerr << report.ToPrettyString();
    }
    if (!options.value().metrics_json.empty()) {
      const Status written =
          report.WriteJsonFile(options.value().metrics_json);
      if (!written.ok()) {
        // The solution was already printed above: a reporting failure names
        // the offending path and flips the exit code, but never eats the
        // solver result.
        std::cerr << "failed to write metrics report to "
                  << options.value().metrics_json << ": " << written << "\n";
        return 1;
      }
      if (options.value().metrics_json != "-") {
        std::cerr << "metrics report written to "
                  << options.value().metrics_json << "\n";
      }
    }
  }
  if (!options.value().metrics_prom.empty()) {
    const Status written =
        obs::WriteOpenMetricsSnapshot(options.value().metrics_prom);
    if (!written.ok()) {
      std::cerr << "failed to write OpenMetrics exposition to "
                << options.value().metrics_prom << ": " << written << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
