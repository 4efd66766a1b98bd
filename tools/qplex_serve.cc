// qplex solve service: executes JSONL job requests through the
// svc::JobScheduler over every registered backend, either as a one-shot
// batch (--jobs, file or stdin) or as a persistent loopback TCP server
// (--listen) multiplexing many concurrent clients onto the one scheduler.
// PrintUsage lists every flag.
//
// This file is flags, setup and wiring. Serving is the one svc::FrontEnd
// (src/svc/front_end.h) fed by one of two line sources, the job file
// (svc::BatchSource) or a loopback net::Server (svc::SocketSource): the same
// admission -> backlog -> scheduler -> completion -> response/journal path
// on the same single-threaded tick. Requests are one JSON object per line,
// parsed by svc::ParseRequestLine, so a malformed line earns identical error
// text from a file or a socket. Batch mode parses and validates the whole
// job file (every backend must exist) before anything runs; a bad line
// fails the batch (exit 2). In socket mode it earns a per-request error
// response and the connection lives on.
//
// Socket mode (--listen, port 0 = kernel-assigned, announced via the
// "listening" event and --port-file) routes each response to its
// connection, tagged with the client's request id, sheds load past the
// backlog with retry_after_ms hints (--shed-target-ms sheds earlier on
// queue delay), and answers {"type": "health"} probes in place. Batch mode
// rejects health lines to protect its byte-identical journal contract.
// --breaker-threshold and --watchdog-stall-ms arm the health subsystem
// (DESIGN.md section 15); --fault-spec arms the deterministic fault
// injector (section 10).
//
// Signals: SIGTERM/SIGINT in socket mode performs the graceful drain —
// stop accepting, finish in-flight jobs, flush every response, close,
// exit 0. In batch mode it stops feeding, cancels admitted work and
// journals nothing further.
//
// Crash safety: --journal appends one timestamp-free JSON line per finished
// job (the WAL), flushed line-by-line, in admission order. Batch mode
// admits in job-file order and supports --resume (skip journaled jobs;
// byte-identical final journal). In socket mode a recorded connection
// script replayed in lockstep (qplex_client --replay) produces a
// byte-identical journal to the run it recorded.

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "net/frame.h"
#include "net/io.h"
#include "net/server.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "quantum/statevector.h"
#include "resilience/fault_injection.h"
#include "svc/front_end.h"
#include "svc/registry.h"
#include "svc/request.h"
#include "svc/scheduler.h"

namespace qplex {
namespace {

/// Set by the SIGINT/SIGTERM handler; polled once per serve-loop tick.
/// Async-signal-safe by construction (one store).
volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

struct ServeOptions {
  std::string jobs;      // job file; "-" = stdin; empty in socket mode
  int listen_port = -1;  // >= 0 enables socket mode (0 = kernel-assigned)
  int workers = 4;
  int queue_cap = 64;
  std::string events = "-";
  bool cache = true;
  std::string metrics_json;
  std::string metrics_prom;         // OpenMetrics exposition path
  int metrics_prom_interval_ms = 0;  // >0 = periodic snapshots during batch
  double slo_ms = 0;                 // >0 = per-job latency objective
  int progress_interval_ms = obs::EventSink::kDefaultProgressIntervalMs;
  std::string journal;       // WAL path; empty = no journaling
  bool resume = false;       // skip jobs already journaled (batch mode only)
  std::string fault_spec;    // forwarded to the global FaultInjector
  std::uint64_t max_sim_bytes = 0;  // 0 = keep the default budget
  int max_retries = 2;
  // Socket-mode knobs.
  int max_connections = 64;
  int idle_timeout_ms = 0;  // 0 = connections never idle out
  std::uint64_t max_line_bytes = net::FrameSplitter::kDefaultMaxLineBytes;
  std::string port_file;  // written with the bound port once listening
  // Health-subsystem knobs (all off by default; DESIGN.md section 15).
  int breaker_threshold = 0;     // >0 arms per-backend circuit breakers
  int breaker_cooldown = 8;      // open -> half-open after N consults
  double watchdog_stall_ms = 0;  // >0 arms the wedged-job watchdog
  double watchdog_poll_ms = 5;   // watchdog scan cadence
  double shed_target_ms = 0;     // >0 arms adaptive admission (socket mode)
};

void PrintUsage() {
  std::cerr << "usage: qplex_serve --jobs <file|-> | --listen <port>\n"
               "                   [--workers <int>] [--queue-cap <int>]\n"
               "                   [--events <file|->] [--cache on|off]\n"
               "                   [--metrics-json <file|->] "
               "[--metrics-prom <file>]\n"
               "                   [--metrics-prom-interval-ms <int>] "
               "[--slo-ms <float>]\n"
               "                   [--progress-interval-ms <int>]\n"
               "                   [--journal <file>] [--resume]\n"
               "                   [--fault-spec site:rate[:seed]] "
               "[--max-sim-bytes <int>]\n"
               "                   [--max-retries <int>]\n"
               "                   [--max-connections <int>] "
               "[--idle-timeout-ms <int>]\n"
               "                   [--max-line-bytes <int>] "
               "[--port-file <file>]\n"
               "                   [--breaker-threshold <int>] "
               "[--breaker-cooldown <int>]\n"
               "                   [--watchdog-stall-ms <float>] "
               "[--watchdog-poll-ms <float>]\n"
               "                   [--shed-target-ms <float>]\n";
}

Result<ServeOptions> ParseArgs(int argc, char** argv) {
  ServeOptions options;
  FlagParser flags;
  flags.String("--jobs", &options.jobs);
  flags.Custom("--listen", [&](const std::string& value) {
    QPLEX_ASSIGN_OR_RETURN(options.listen_port,
                           ParseIntFlag<int>("--listen", value));
    if (options.listen_port < 0 || options.listen_port > 65535) {
      return Status::InvalidArgument("--listen port must be in [0, 65535]");
    }
    return Status::Ok();
  });
  flags.Number("--workers", &options.workers, 1);
  flags.Number("--queue-cap", &options.queue_cap, 1);
  flags.String("--events", &options.events);
  flags.Custom("--cache", [&](const std::string& value) {
    if (value != "on" && value != "off") {
      return Status::InvalidArgument("--cache must be on or off");
    }
    options.cache = value == "on";
    return Status::Ok();
  });
  flags.String("--metrics-json", &options.metrics_json);
  flags.String("--metrics-prom", &options.metrics_prom);
  flags.Number("--metrics-prom-interval-ms",
               &options.metrics_prom_interval_ms, 0);
  flags.Number("--slo-ms", &options.slo_ms, 0.0);
  flags.Number("--progress-interval-ms", &options.progress_interval_ms, 1);
  flags.String("--journal", &options.journal);
  flags.Switch("--resume", &options.resume);
  flags.Custom("--fault-spec", [&](const std::string& value) {
    // Repeated flags accumulate into one comma-joined spec.
    options.fault_spec += (options.fault_spec.empty() ? "" : ",") + value;
    return Status::Ok();
  });
  flags.Number("--max-sim-bytes", &options.max_sim_bytes, std::uint64_t{1});
  flags.Number("--max-retries", &options.max_retries, 0);
  flags.Number("--max-connections", &options.max_connections, 1);
  flags.Number("--idle-timeout-ms", &options.idle_timeout_ms, 0);
  flags.Number("--max-line-bytes", &options.max_line_bytes, std::uint64_t{2});
  flags.String("--port-file", &options.port_file);
  flags.Number("--breaker-threshold", &options.breaker_threshold, 0);
  flags.Number("--breaker-cooldown", &options.breaker_cooldown, 1);
  flags.Number("--watchdog-stall-ms", &options.watchdog_stall_ms, 0.0);
  flags.Number("--watchdog-poll-ms", &options.watchdog_poll_ms);
  flags.Number("--shed-target-ms", &options.shed_target_ms, 0.0);
  QPLEX_RETURN_IF_ERROR(flags.Parse(argc, argv));
  const bool socket_mode = options.listen_port >= 0;
  if (options.jobs.empty() && !socket_mode) {
    return Status::InvalidArgument("--jobs or --listen is required");
  }
  if (!options.jobs.empty() && socket_mode) {
    return Status::InvalidArgument("--jobs and --listen are exclusive");
  }
  if (socket_mode && options.resume) {
    return Status::InvalidArgument(
        "--resume applies to batch mode only (socket-mode journals are "
        "reproduced by replaying the connection script)");
  }
  if (options.resume && options.journal.empty()) {
    return Status::InvalidArgument("--resume requires --journal");
  }
  if (options.metrics_prom_interval_ms > 0 && options.metrics_prom.empty()) {
    return Status::InvalidArgument(
        "--metrics-prom-interval-ms requires --metrics-prom");
  }
  if (options.watchdog_poll_ms <= 0) {
    return Status::InvalidArgument("--watchdog-poll-ms must be > 0");
  }
  if (options.shed_target_ms > 0 && !socket_mode) {
    return Status::InvalidArgument(
        "--shed-target-ms applies to socket mode only (batch mode has no "
        "admission queue to shed from)");
  }
  return options;
}

Result<std::vector<svc::RequestSpec>> ReadJobs(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(const std::string text, net::SlurpFile(path));
  std::vector<svc::RequestSpec> specs;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (svc::IsBlankOrComment(line)) {
      continue;
    }
    QPLEX_ASSIGN_OR_RETURN(svc::RequestSpec spec,
                           svc::ParseRequestLine(line, line_number));
    if (spec.kind == svc::RequestKind::kHealth) {
      // Health responses are load-dependent snapshots; letting them into a
      // batch would poison the journal's byte-identity (--resume) contract.
      return Status::InvalidArgument(
          "health requests are socket-mode only (line " +
          std::to_string(line_number) + ")");
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Batch mode fails before anything runs: every backend a job names must be
/// registered, and every job's racers must fit the admission queue at once.
Status ValidateJobs(const std::vector<svc::RequestSpec>& specs,
                    const svc::SolverRegistry& registry, int queue_cap) {
  for (const svc::RequestSpec& spec : specs) {
    const std::vector<std::string> backends =
        spec.backends.empty() ? std::vector<std::string>{spec.request.backend}
                              : spec.backends;
    for (const std::string& backend : backends) {
      if (registry.Get(backend) == nullptr) {
        return Status::InvalidArgument("job '" + spec.request.label +
                                       "': unknown backend: " + backend);
      }
    }
    if (backends.size() > static_cast<std::size_t>(queue_cap)) {
      return Status::InvalidArgument("job '" + spec.request.label +
                                     "' races more backends than --queue-cap");
    }
  }
  return Status::Ok();
}

/// --resume: checks the journaled prefix against the job file label by
/// label and narrates it as job_replayed events. Returns the number of
/// journaled failures, which still count in batch_end.failed.
Result<std::int64_t> ReplayJournal(
    const std::vector<svc::RequestSpec>& specs,
    const std::vector<svc::JournalEntry>& journaled) {
  if (journaled.size() > specs.size()) {
    return Status::InvalidArgument(
        "journal has " + std::to_string(journaled.size()) +
        " entries but the batch only has " + std::to_string(specs.size()) +
        " jobs — wrong journal for this job file?");
  }
  std::int64_t failures = 0;
  for (std::size_t i = 0; i < journaled.size(); ++i) {
    if (journaled[i].label != specs[i].request.label) {
      return Status::InvalidArgument(
          "journal entry " + std::to_string(i + 1) + " is for job '" +
          journaled[i].label + "' but the job file has '" +
          specs[i].request.label + "' — wrong journal for this job file?");
    }
    if (journaled[i].status != "OK") {
      ++failures;
    }
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kInfo, "svc", "job_replayed",
                     {{"label", journaled[i].label},
                      {"status", journaled[i].status}});
    }
  }
  return failures;
}

/// Wires the mode's line source to the shared front-end and runs it. The
/// tick callback is where the signal flag and the periodic OpenMetrics
/// snapshots meet the serve loop.
Result<svc::ServeOutcome> Serve(
    const ServeOptions& options, const svc::SolverRegistry& registry,
    svc::JobScheduler* scheduler, std::ostream* journal,
    std::vector<svc::RequestSpec> specs,
    const std::vector<svc::JournalEntry>& journaled) {
  svc::FrontEnd front_end(scheduler,
                          static_cast<std::size_t>(options.queue_cap),
                          options.shed_target_ms, journal);
  std::unique_ptr<svc::LineSource> source;
  std::int64_t replayed_failures = 0;
  if (options.listen_port >= 0) {
    net::ServerOptions server_options;
    server_options.port = options.listen_port;
    server_options.max_connections = options.max_connections;
    server_options.idle_timeout_ms = options.idle_timeout_ms;
    server_options.max_line_bytes =
        static_cast<std::size_t>(options.max_line_bytes);
    QPLEX_ASSIGN_OR_RETURN(
        std::unique_ptr<svc::SocketSource> socket,
        svc::SocketSource::Create(std::move(server_options), &front_end));
    const int port = socket->server().port();
    if (!options.port_file.empty()) {
      std::ofstream port_out(options.port_file, std::ios::trunc);
      port_out << port << "\n";
      if (!port_out) {
        return Status::Internal("cannot write port file: " +
                                options.port_file);
      }
    }
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kInfo, "net", "listening",
                     {{"port", port},
                      {"max_connections", options.max_connections},
                      {"idle_timeout_ms", options.idle_timeout_ms}});
    }
    source = std::move(socket);
  } else {
    QPLEX_RETURN_IF_ERROR(ValidateJobs(specs, registry, options.queue_cap));
    QPLEX_ASSIGN_OR_RETURN(replayed_failures, ReplayJournal(specs, journaled));
    specs.erase(specs.begin(), specs.begin() + journaled.size());
    source = std::make_unique<svc::BatchSource>(std::move(specs), &front_end);
  }
  Stopwatch since_snapshot;
  QPLEX_ASSIGN_OR_RETURN(
      svc::ServeOutcome outcome, front_end.Run(source.get(), [&] {
        if (options.metrics_prom_interval_ms > 0 &&
            since_snapshot.ElapsedMillis() >=
                options.metrics_prom_interval_ms) {
          since_snapshot.Restart();
          // Transient IO failures retry at the next interval.
          (void)obs::WriteOpenMetricsSnapshot(options.metrics_prom);
        }
        return g_signal != 0;
      }));
  outcome.failures += replayed_failures;
  outcome.skipped = static_cast<std::int64_t>(journaled.size());
  return outcome;
}

int Main(int argc, char** argv) {
  // Handlers go in before anything else so a signal during startup already
  // takes the graceful path. SIGPIPE is ignored process-wide: a client
  // disconnecting mid-write must surface as EPIPE on that connection's
  // write, never kill the server.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  net::IgnoreSigpipe();

  const Result<ServeOptions> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    PrintUsage();
    return 2;
  }
  const bool socket_mode = options.value().listen_port >= 0;

  if (!options.value().fault_spec.empty()) {
    const Status armed =
        resilience::FaultInjector::Global().Configure(
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

  std::unique_ptr<obs::EventSink> events;
  if (!options.value().events.empty()) {
    Result<std::unique_ptr<obs::EventSink>> opened = obs::EventSink::Open(
        options.value().events, options.value().progress_interval_ms);
    if (!opened.ok()) {
      std::cerr << "failed to open event stream " << options.value().events
                << ": " << opened.status() << "\n";
      return 2;
    }
    events = std::move(opened).value();
    obs::EventSink::InstallGlobal(events.get());
  }
  struct SinkUninstaller {
    ~SinkUninstaller() { obs::EventSink::InstallGlobal(nullptr); }
  } uninstaller;

  std::vector<svc::RequestSpec> specs;
  if (!socket_mode) {
    Result<std::vector<svc::RequestSpec>> read =
        ReadJobs(options.value().jobs);
    if (!read.ok()) {
      std::cerr << "failed to read jobs: " << read.status() << "\n";
      return 2;
    }
    specs = std::move(read).value();
  }

  // Journal setup. On --resume the valid prefix of the existing WAL is kept
  // (a torn tail line from a hard crash is truncated away) and the stream
  // reopens right after it; otherwise the journal starts fresh.
  std::vector<svc::JournalEntry> journaled;
  std::unique_ptr<std::ofstream> journal;
  if (!options.value().journal.empty()) {
    if (options.value().resume) {
      // No journal yet is a fresh run.
      journaled = svc::ReadJournal(options.value().journal).value_or({});
    }
    journal = std::make_unique<std::ofstream>(options.value().journal,
                                              std::ios::trunc);
    if (!*journal) {
      std::cerr << "cannot open journal: " << options.value().journal << "\n";
      return 2;
    }
    for (const svc::JournalEntry& entry : journaled) {
      *journal << entry.line << "\n";
    }
    journal->flush();
  }

  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();

  svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  svc::JobSchedulerOptions scheduler_options;
  scheduler_options.num_workers = options.value().workers;
  scheduler_options.queue_capacity =
      static_cast<std::size_t>(options.value().queue_cap);
  scheduler_options.enable_cache = options.value().cache;
  scheduler_options.retry.max_retries = options.value().max_retries;
  scheduler_options.slo_latency_ms = options.value().slo_ms;
  scheduler_options.breaker.failure_threshold =
      options.value().breaker_threshold;
  scheduler_options.breaker.cooldown_consults =
      options.value().breaker_cooldown;
  scheduler_options.watchdog_stall_ms = options.value().watchdog_stall_ms;
  scheduler_options.watchdog_poll_ms = options.value().watchdog_poll_ms;

  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "svc", "batch_start",
                   {{"jobs", static_cast<std::int64_t>(specs.size())},
                    {"listen", socket_mode},
                    {"workers", options.value().workers},
                    {"queue_cap", options.value().queue_cap},
                    {"cache", options.value().cache},
                    {"resumed", static_cast<std::int64_t>(journaled.size())}});
  }
  Stopwatch watch;
  Result<svc::ServeOutcome> outcome = svc::ServeOutcome{};
  {
    svc::JobScheduler scheduler(&registry, scheduler_options);
    outcome = Serve(options.value(), registry, &scheduler, journal.get(),
                    std::move(specs), journaled);
  }
  const double wall_seconds = watch.ElapsedSeconds();
  if (!outcome.ok()) {
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kWarn, "svc", "batch_error",
                     {{"status", outcome.status().ToString()},
                      {"wall_seconds", wall_seconds}});
    }
    std::cerr << "batch failed: " << outcome.status() << "\n";
    return 2;
  }

  auto& metrics = obs::MetricsRegistry::Global();
  const std::int64_t total =
      metrics.GetCounter("svc.jobs.completed").Get() + outcome.value().skipped;
  if (obs::EventsEnabled()) {
    obs::EmitEvent(
        obs::EventLevel::kInfo, "svc", "batch_end",
        {{"jobs", total},
         {"failed", outcome.value().failures},
         {"skipped", outcome.value().skipped},
         {"interrupted", outcome.value().interrupted},
         {"requests", outcome.value().requests},
         {"responses", outcome.value().responses},
         {"malformed", outcome.value().malformed},
         {"shed", outcome.value().shed},
         {"retries", metrics.GetCounter("svc.retries.scheduled").Get()},
         {"fallbacks", metrics.GetCounter("svc.fallbacks.taken").Get()},
         {"cache_hits", metrics.GetCounter("svc.cache.hits").Get()},
         {"cache_misses", metrics.GetCounter("svc.cache.misses").Get()},
         {"wall_seconds", wall_seconds},
         {"jobs_per_second",
          wall_seconds > 0 ? static_cast<double>(total) / wall_seconds
                           : 0.0}});
  }

  if (!options.value().metrics_prom.empty()) {
    const Status written =
        obs::WriteOpenMetricsSnapshot(options.value().metrics_prom);
    if (!written.ok()) {
      std::cerr << "failed to write OpenMetrics exposition to "
                << options.value().metrics_prom << ": " << written << "\n";
      return 2;
    }
  }

  if (!options.value().metrics_json.empty()) {
    obs::RunReport report("qplex_serve");
    report.SetMeta("jobs", total);
    report.SetMeta("failed", outcome.value().failures);
    report.SetMeta("skipped", outcome.value().skipped);
    report.SetMeta("interrupted", outcome.value().interrupted);
    report.SetMeta("workers", options.value().workers);
    report.SetMeta("cache", options.value().cache);
    report.SetMeta("wall_seconds", wall_seconds);
    report.Capture();
    const Status written = report.WriteJsonFile(options.value().metrics_json);
    if (!written.ok()) {
      std::cerr << "failed to write metrics report to "
                << options.value().metrics_json << ": " << written << "\n";
      return 2;
    }
  }
  return 0;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
