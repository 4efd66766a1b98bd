// The traced in-process replay. Each request of the served answer window is
// re-run through the same public functions the service adapters call
// (svc parse/cache/render, then the backend's layers), with a benchmark-side
// span around every call. The rendered response line must equal the served
// one byte for byte, which shows the replay took the served path. qMKP
// requests are then probed layer by layer (oracle build, marked-state
// evaluation, state-vector Grover) outside the request spans, and the
// FrameSplitter/WriteBuffer byte machines are timed over the run's own
// request and response bytes.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "anneal/hybrid_solver.h"
#include "anneal/parallel_tempering.h"
#include "anneal/path_integral_annealer.h"
#include "anneal/simulated_annealer.h"
#include "bench.h"
#include "classical/bs_solver.h"
#include "classical/grasp.h"
#include "grover/qmkp.h"
#include "milp/milp_solver.h"
#include "milp/qubo_linearization.h"
#include "net/frame.h"
#include "oracle/mkp_oracle.h"
#include "quantum/statevector.h"
#include "qubo/mkp_qubo.h"
#include "spans.h"
#include "svc/cache.h"
#include "svc/graph_hash.h"
#include "svc/request.h"

namespace qplex::bench {
namespace {

/// Request ids of side probes start here, so their spans never mix with the
/// served window's.
constexpr std::int64_t kSideBase = 1000000;

MkpSolution SolutionFromMembers(VertexList members) {
  MkpSolution solution;
  std::sort(members.begin(), members.end());
  solution.size = static_cast<int>(members.size());
  solution.members = std::move(members);
  FillSolutionMask(solution);
  return solution;
}

/// A qMKP request whose probes are re-run layer by layer after the window.
struct QmkpRun {
  std::int64_t request = 0;
  Graph graph;
  int k = 0;
  std::vector<QmkpProbe> probes;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

class Replayer {
  // Defined first: the members below deduce their types from Timed.
  template <typename Fn>
  auto Timed(const char* name, std::int64_t rid, Fn&& fn) {
    ScopedSpan span(&spans_, name, rid);
    return fn();
  }

  /// Adds to a work counter. Parse bytes count only for the served window,
  /// like the svc spans they normalise.
  void Count(std::int64_t rid, const std::string& name, double value) {
    if (name != "svc.parse_bytes" || (rid >= 0 && rid < kSideBase)) {
      counters_[name] += value;
    }
  }

 public:
  /// Replays one request line; returns the rendered response line.
  Result<std::string> Replay(const std::string& line, std::int64_t rid) {
    ScopedSpan root(&spans_, "request", rid);
    QPLEX_ASSIGN_OR_RETURN(
        svc::RequestSpec spec,
        Timed("svc.parse", rid, [&] { return svc::ParseRequestLine(line, 1); }));
    Count(rid, "svc.parse_bytes", static_cast<double>(line.size()));
    const svc::SolveRequest& request = spec.request;
    const std::string key = Timed("svc.cache_key", rid, [&] {
      return svc::CacheKey(request, request.backend);
    });
    std::optional<svc::SolveResponse> cached = Timed(
        "svc.cache_lookup", rid, [&] { return cache_.Lookup(key); });
    svc::SolveResponse response;
    if (cached.has_value()) {
      response = *std::move(cached);
    } else {
      response.backend = request.backend;
      Result<svc::SolveOutcome> outcome = Solve(request, rid);
      if (!outcome.ok()) {
        response.status = outcome.status();
      } else {
        response.solution = std::move(outcome.value().solution);
        response.provably_optimal = outcome.value().provably_optimal;
        if (!outcome.value().completed) {
          response.status = Status::DeadlineExceeded("stopped early");
        } else {
          Timed("svc.cache_insert", rid, [&] {
            cache_.Insert(key, response);
            return 0;
          });
        }
      }
    }
    return Timed("svc.render", rid, [&] {
      return svc::RenderResponseLine(request.label, response);
    });
  }

  /// Re-runs every probe of every replayed qMKP request through the oracle
  /// and state-vector layers on their own.
  void ProbeQmkpLayers() {
    for (const QmkpRun& run : qmkp_runs_) {
      ScopedSpan root(&spans_, "layer_probe", run.request);
      const int n = run.graph.num_vertices();
      const double states = static_cast<double>(std::uint64_t{1} << n);
      for (const QmkpProbe& probe : run.probes) {
        Result<MkpOracle> oracle = Timed("oracle.build", run.request, [&] {
          return MkpOracle::Build(run.graph, run.k, probe.threshold);
        });
        const double gates = oracle.value().circuit().num_gates();
        Count(run.request, "oracle.builds", 1);
        Count(run.request, "oracle.gates", gates);
        const std::vector<std::uint64_t> marked =
            Timed("oracle.marked_states", run.request,
                  [&] { return oracle.value().MarkedStates(); });
        Count(run.request, "oracle.gate_states", gates * states);
        Timed("quantum.grover_sim", run.request, [&] {
          StateVectorSimulator simulator(n);
          simulator.PrepareUniform();
          for (std::int64_t i = 0; i < probe.oracle_calls; ++i) {
            simulator.ApplyPhaseOracle(marked);
            simulator.ApplyDiffusion();
          }
          return 0;
        });
        Count(run.request, "quantum.amp_updates",
              states * (1 + 2 * static_cast<double>(probe.oracle_calls)));
      }
    }
  }

  /// Times FrameSplitter over the request bytes and WriteBuffer over the
  /// response bytes, repeating each until it has run for a while.
  void ProbeNet(const std::string& inbound,
                const std::vector<std::string>& outbound) {
    constexpr std::size_t kReadSize = 4096;
    constexpr double kMinSeconds = 0.2;
    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0;
         pass < 3 || std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                             .count() < kMinSeconds;
         ++pass) {
      Timed("net.frame", -1, [&] {
        net::FrameSplitter splitter;
        std::string line;
        for (std::size_t at = 0; at < inbound.size(); at += kReadSize) {
          (void)splitter.Feed(std::string_view(inbound).substr(at, kReadSize));
          while (splitter.Next(&line)) {
          }
        }
        return 0;
      });
      Count(-1, "net.frame_bytes", static_cast<double>(inbound.size()));
    }
    const int sink = open("/dev/null", O_WRONLY);
    if (sink < 0) {
      return;
    }
    const auto write_start = std::chrono::steady_clock::now();
    for (int pass = 0;
         pass < 3 || std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - write_start)
                             .count() < kMinSeconds;
         ++pass) {
      double bytes = 0;
      Timed("net.write", -1, [&] {
        net::WriteBuffer buffer;
        for (const std::string& line : outbound) {
          buffer.Append(line + "\n");
          if (buffer.FlushDue()) {
            (void)buffer.FlushTo(sink);
          }
        }
        (void)buffer.FlushTo(sink);
        bytes = static_cast<double>(buffer.bytes_written());
        return 0;
      });
      Count(-1, "net.write_bytes", bytes);
    }
    close(sink);
  }

  const std::vector<Span>& spans() const { return spans_.spans(); }

  double Counter(const std::string& name) const {
    const auto found = counters_.find(name);
    return found == counters_.end() ? 0 : found->second;
  }

 private:
  /// Mirrors the service adapters (src/svc/backends.cc) call for call.
  Result<svc::SolveOutcome> Solve(const svc::SolveRequest& request,
                                  std::int64_t rid) {
    const std::string& backend = request.backend;
    const Graph& graph = request.graph;
    svc::SolveOutcome outcome;
    if (backend == "qmkp") {
      QtkpOptions options;
      QPLEX_ASSIGN_OR_RETURN(
          const std::string oracle,
          svc::OptionString(request, "oracle",
                            graph.num_vertices() <= 10 ? "circuit"
                                                       : "predicate"));
      options.backend = oracle == "circuit" ? OracleBackend::kCircuit
                                            : OracleBackend::kPredicate;
      QPLEX_ASSIGN_OR_RETURN(options.threads,
                             svc::OptionInt(request, "threads", 1));
      options.seed = request.seed;
      QPLEX_ASSIGN_OR_RETURN(QmkpResult result, Timed("grover.qmkp", rid, [&] {
                               return RunQmkp(graph, request.k, options);
                             }));
      Count(rid, "grover.runs", 1);
      Count(rid, "grover.oracle_calls",
            static_cast<double>(result.total_oracle_calls));
      Count(rid, "grover.probes", static_cast<double>(result.probes.size()));
      if (options.backend == OracleBackend::kCircuit) {
        qmkp_runs_.push_back(QmkpRun{rid, graph, request.k, result.probes});
      }
      outcome.solution = SolutionFromMembers(result.best_plex);
      return outcome;
    }
    if (backend == "bs") {
      BsSolverOptions options;
      QPLEX_ASSIGN_OR_RETURN(const int use_reduction,
                             svc::OptionInt(request, "use_reduction", 1));
      options.use_reduction = use_reduction != 0;
      BsSolver solver(options);
      QPLEX_ASSIGN_OR_RETURN(outcome.solution, Timed("classical.bs", rid, [&] {
                               return solver.Solve(graph, request.k);
                             }));
      Count(rid, "classical.bs_solves", 1);
      Count(rid, "classical.bs_branch_nodes",
            static_cast<double>(solver.stats().branch_nodes));
      outcome.completed = solver.stats().completed;
      outcome.provably_optimal = outcome.completed;
      return outcome;
    }
    if (backend == "grasp") {
      GraspOptions options;
      QPLEX_ASSIGN_OR_RETURN(options.iterations,
                             svc::OptionInt(request, "iterations", 64));
      QPLEX_ASSIGN_OR_RETURN(options.alpha,
                             svc::OptionDouble(request, "alpha", 0.3));
      options.seed = request.seed;
      GraspSolver solver(options);
      QPLEX_ASSIGN_OR_RETURN(outcome.solution,
                             Timed("classical.grasp", rid, [&] {
                               return solver.Solve(graph, request.k);
                             }));
      outcome.completed = solver.stats().completed;
      return outcome;
    }

    // Every remaining backend runs on the qaMKP QUBO.
    QPLEX_ASSIGN_OR_RETURN(MkpQubo qubo, Timed("qubo.build", rid, [&] {
                             return BuildMkpQubo(graph, request.k);
                           }));
    const double variables = qubo.num_variables();
    Count(rid, "qubo.builds", 1);
    Count(rid, "qubo.variables", variables);
    QuboSample sample;
    if (backend == "milp") {
      const LinearizedQubo linearized = Timed(
          "milp.linearize", rid, [&] { return LinearizeQubo(qubo.model); });
      MilpSolverOptions options;
      QPLEX_ASSIGN_OR_RETURN(options.time_limit_seconds,
                             svc::OptionDouble(request, "time_limit", 60));
      options.incumbent_heuristic =
          MakeQuboRoundingHeuristic(qubo.model, linearized);
      QPLEX_ASSIGN_OR_RETURN(MilpSolution milp, Timed("milp.solve", rid, [&] {
                               return MilpSolver(options).Solve(
                                   linearized.milp);
                             }));
      Count(rid, "milp.solves", 1);
      Count(rid, "milp.bb_nodes", static_cast<double>(milp.nodes));
      if (!milp.feasible) {
        return Status::Internal("MILP produced no feasible point");
      }
      sample = ExtractSample(linearized, milp.x);
      outcome.completed = milp.optimal;
      outcome.provably_optimal = milp.optimal;
    } else {
      AnnealResult result;
      double replicas = 1;
      if (backend == "sa") {
        SimulatedAnnealerOptions options;
        QPLEX_ASSIGN_OR_RETURN(options.shots,
                               svc::OptionInt(request, "shots", 100));
        QPLEX_ASSIGN_OR_RETURN(options.sweeps_per_shot,
                               svc::OptionInt(request, "sweeps", 2));
        options.seed = request.seed;
        QPLEX_ASSIGN_OR_RETURN(result, Timed("anneal.sa", rid, [&] {
                                 return SimulatedAnnealer(options).Run(
                                     qubo.model);
                               }));
      } else if (backend == "pt") {
        // PT counts one sweep per replica, so sweeps x variables is already
        // the number of flip attempts.
        ParallelTemperingOptions options;
        QPLEX_ASSIGN_OR_RETURN(options.rounds,
                               svc::OptionInt(request, "rounds", 64));
        QPLEX_ASSIGN_OR_RETURN(options.num_replicas,
                               svc::OptionInt(request, "replicas", 8));
        options.seed = request.seed;
        QPLEX_ASSIGN_OR_RETURN(result, Timed("anneal.pt", rid, [&] {
                                 return ParallelTempering(options).Run(
                                     qubo.model);
                               }));
      } else if (backend == "pia") {
        // SQA counts one sweep per Trotter sweep over all replicas.
        PathIntegralAnnealerOptions options;
        QPLEX_ASSIGN_OR_RETURN(options.shots,
                               svc::OptionInt(request, "shots", 100));
        QPLEX_ASSIGN_OR_RETURN(options.replicas,
                               svc::OptionInt(request, "replicas", 16));
        options.seed = request.seed;
        replicas = options.replicas;
        QPLEX_ASSIGN_OR_RETURN(result, Timed("anneal.pia", rid, [&] {
                                 return PathIntegralAnnealer(options).Run(
                                     qubo.model);
                               }));
      } else if (backend == "hybrid") {
        HybridSolverOptions options;
        QPLEX_ASSIGN_OR_RETURN(options.max_restarts,
                               svc::OptionInt(request, "restarts", 64));
        options.seed = request.seed;
        options.refine = [&qubo](QuboSample* s) { qubo.ImproveSample(s); };
        QPLEX_ASSIGN_OR_RETURN(result, Timed("anneal.hybrid", rid, [&] {
                                 return HybridSolver(options).Run(qubo.model);
                               }));
      } else {
        return Status::InvalidArgument("replay has no backend " + backend);
      }
      Count(rid, "anneal.runs", 1);
      Count(rid, "anneal.sweeps", static_cast<double>(result.sweeps));
      Count(rid, "anneal." + backend + ".flips",
            static_cast<double>(result.sweeps) * variables * replicas);
      sample = std::move(result.best_sample);
      outcome.completed = result.completed;
    }
    VertexList plex = Timed("qubo.repair", rid,
                            [&] { return qubo.RepairToPlex(sample); });
    Count(rid, "qubo.repairs", 1);
    outcome.solution = SolutionFromMembers(std::move(plex));
    return outcome;
  }

  SpanRecorder spans_;
  svc::InstanceCache cache_{256};
  std::map<std::string, double> counters_;
  std::vector<QmkpRun> qmkp_runs_;
};

struct ServedRow {
  std::string id;
  bool failed = true;
  std::string response;
};

std::vector<ServedRow> ReadServed(const std::string& path) {
  std::vector<ServedRow> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    ServedRow row;
    std::string rtt, done, failed, optimum, sent, received;
    std::getline(fields, row.id, '\t');
    std::getline(fields, rtt, '\t');
    std::getline(fields, done, '\t');
    std::getline(fields, failed, '\t');
    std::getline(fields, optimum, '\t');
    std::getline(fields, sent, '\t');
    std::getline(fields, received, '\t');
    std::getline(fields, row.response);
    row.failed = failed != "0";
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

int RunReplay(const Workload& workload, const Workload& side,
              const ReplayConfig& config) {
  const std::vector<ServedRow> served = ReadServed(config.served_path);
  const int window = workload.answer_window;
  if (static_cast<int>(served.size()) < window) {
    std::cerr << "served run answered " << served.size()
              << " requests, fewer than the window of " << window << "\n";
    return 1;
  }
  Replayer replayer;
  std::vector<std::string> mismatches;
  for (int i = 0; i < window; ++i) {
    Result<std::string> line =
        replayer.Replay(RequestLine(workload, workload.requests[i]), i);
    const std::string replayed = line.ok() ? line.value() : line.status().ToString();
    if (served[i].failed || replayed != served[i].response) {
      mismatches.push_back(workload.requests[i].id + ": served " +
                           served[i].response + " replayed " + replayed);
    }
  }
  for (std::size_t i = 0; i < side.requests.size(); ++i) {
    Result<std::string> line =
        replayer.Replay(RequestLine(side, side.requests[i]),
                        kSideBase + static_cast<std::int64_t>(i));
    if (!line.ok()) {
      mismatches.push_back(side.requests[i].id + ": " +
                           line.status().ToString());
    }
  }
  replayer.ProbeQmkpLayers();
  std::string inbound;
  std::vector<std::string> outbound;
  for (std::size_t i = 0; i < served.size(); ++i) {
    inbound += RequestLine(workload, workload.requests[i]) + "\n";
    outbound.push_back(served[i].response);
  }
  replayer.ProbeNet(inbound, outbound);

  // Aggregate: all spans per name, and the served window's spans alone for
  // the svc metrics and the per-layer shares of request time.
  std::vector<Span> window_spans;
  for (const Span& span : replayer.spans()) {
    if (span.request >= 0 && span.request < kSideBase) {
      window_spans.push_back(span);
    }
  }
  const auto all = TotalsByName(replayer.spans());
  const auto own = TotalsByName(window_spans);
  auto total_ms = [](const std::map<std::string, SpanTotals>& t,
                     const std::string& name) {
    const auto found = t.find(name);
    return found == t.end() ? 0.0 : found->second.total_ns / 1e6;
  };
  auto mean_ms = [](const std::map<std::string, SpanTotals>& t,
                    const std::string& name) {
    const auto found = t.find(name);
    return found == t.end() ? 0.0
                            : Ratio(found->second.total_ns / 1e6,
                                    static_cast<double>(found->second.count));
  };
  auto c = [&](const std::string& name) { return replayer.Counter(name); };

  std::map<std::string, double> m;
  m["oracle.build_ms"] = mean_ms(all, "oracle.build");
  m["oracle.gates"] = Ratio(c("oracle.gates"), c("oracle.builds"));
  m["oracle.marked_states_ms"] = mean_ms(all, "oracle.marked_states");
  m["oracle.eval_ns_per_gate_state"] =
      Ratio(total_ms(all, "oracle.marked_states") * 1e6, c("oracle.gate_states"));
  m["oracle.share_of_qmkp"] =
      Ratio(total_ms(all, "oracle.build") + total_ms(all, "oracle.marked_states"),
            total_ms(all, "grover.qmkp"));
  m["grover.qmkp_ms"] = mean_ms(all, "grover.qmkp");
  m["grover.oracle_calls"] = Ratio(c("grover.oracle_calls"), c("grover.runs"));
  m["grover.probes"] = Ratio(c("grover.probes"), c("grover.runs"));
  m["quantum.ns_per_amp_update"] = Ratio(
      total_ms(all, "quantum.grover_sim") * 1e6, c("quantum.amp_updates"));
  m["quantum.share_of_qmkp"] =
      Ratio(total_ms(all, "quantum.grover_sim"), total_ms(all, "grover.qmkp"));
  m["qubo.build_us"] = mean_ms(all, "qubo.build") * 1e3;
  m["qubo.variables"] = Ratio(c("qubo.variables"), c("qubo.builds"));
  m["qubo.repair_us"] = mean_ms(all, "qubo.repair") * 1e3;
  for (const char* annealer : {"sa", "pt", "pia"}) {
    const std::string name = annealer;
    m["anneal." + name + "_ns_per_flip"] =
        Ratio(total_ms(all, "anneal." + name) * 1e6,
              c("anneal." + name + ".flips"));
  }
  m["anneal.hybrid_ms"] = mean_ms(all, "anneal.hybrid");
  m["anneal.sweeps"] = Ratio(c("anneal.sweeps"), c("anneal.runs"));
  m["milp.linearize_ms"] = mean_ms(all, "milp.linearize");
  m["milp.solve_ms"] = mean_ms(all, "milp.solve");
  m["milp.bb_nodes"] = Ratio(c("milp.bb_nodes"), c("milp.solves"));
  m["milp.ms_per_node"] =
      Ratio(total_ms(all, "milp.solve"), c("milp.bb_nodes"));
  m["classical.bs_us"] = mean_ms(all, "classical.bs") * 1e3;
  m["classical.bs_branch_nodes"] =
      Ratio(c("classical.bs_branch_nodes"), c("classical.bs_solves"));
  m["classical.bs_ns_per_branch_node"] =
      Ratio(total_ms(all, "classical.bs") * 1e6,
            std::max(1.0, c("classical.bs_branch_nodes")));
  m["classical.grasp_us"] = mean_ms(all, "classical.grasp") * 1e3;
  m["svc.parse_ns_per_byte"] =
      Ratio(total_ms(own, "svc.parse") * 1e6, c("svc.parse_bytes"));
  m["svc.cache_key_us"] = mean_ms(own, "svc.cache_key") * 1e3;
  m["svc.render_us"] = mean_ms(own, "svc.render") * 1e3;
  m["net.frame_ns_per_byte"] =
      Ratio(total_ms(all, "net.frame") * 1e6, c("net.frame_bytes"));
  m["net.write_ns_per_byte"] =
      Ratio(total_ms(all, "net.write") * 1e6, c("net.write_bytes"));

  // Self-time share of each layer in the served window's request time.
  double request_ns = 0;
  std::map<std::string, double> layer_self_ns;
  for (const Span& span : window_spans) {
    if (span.name == "request") {
      request_ns += span.duration_ns();
    } else if (span.name != "layer_probe") {
      layer_self_ns[span.name.substr(0, span.name.find('.'))] +=
          span.self_ns();
    }
  }
  for (const char* layer :
       {"svc", "classical", "grover", "qubo", "anneal", "milp"}) {
    m[std::string("share.") + layer] = Ratio(layer_self_ns[layer], request_ns);
  }

  std::ofstream out(config.out_path, std::ios::trunc);
  out << "{\"replayed\":" << window << ",\"side_probes\":" << side.requests.size()
      << ",\"mismatches\":[";
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    out << (i == 0 ? "" : ",") << JsonString(mismatches[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(value);
    first = false;
  }
  out << "}}\n";
  out.close();

  std::ofstream spans_out(config.spans_path, std::ios::trunc);
  for (const Span& span : replayer.spans()) {
    spans_out << "{\"name\":" << JsonString(span.name)
              << ",\"request\":" << span.request
              << ",\"parent\":" << span.parent
              << ",\"start_ns\":" << span.start_ns
              << ",\"end_ns\":" << span.end_ns
              << ",\"self_ns\":" << span.self_ns() << "}\n";
  }
  spans_out.close();
  for (const std::string& mismatch : mismatches) {
    std::cerr << "replay mismatch " << mismatch << "\n";
  }
  return mismatches.empty() && out && spans_out ? 0 : 1;
}

}  // namespace qplex::bench
