#include "svc/front_end.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "net/io.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "resilience/breaker.h"

namespace qplex::svc {
namespace {

/// The per-request error line used for malformed requests, unknown
/// backends and shed load. Shares the "label"/"status" keys with the
/// success renderer so clients parse one schema; shed lines add a
/// retry_after_ms hint the server measured, so a well-behaved client backs
/// off for a real delay instead of guessing.
std::string RenderErrorLine(const std::string& label, const Status& status,
                            double retry_after_ms = -1) {
  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("label", label);
  line.Set("status", std::string(StatusCodeName(status.code())));
  line.Set("error", status.message());
  if (retry_after_ms >= 0) {
    line.Set("retry_after_ms", retry_after_ms);
  }
  return line.Dump();
}

}  // namespace

FrontEnd::FrontEnd(JobScheduler* scheduler, std::size_t backlog_capacity,
                   double shed_target_ms, std::ostream* journal)
    : scheduler_(scheduler),
      backlog_capacity_(backlog_capacity),
      journal_(journal),
      overload_(
          resilience::OverloadOptions{.target_delay_ms = shed_target_ms}) {}

Result<ServeOutcome> FrontEnd::Run(LineSource* source,
                                   const std::function<bool()>& tick) {
  source_ = source;
  while (true) {
    if (tick() && !draining_) {
      draining_ = true;
      outcome_.interrupted = true;
      source_->Stop();
    }
    const bool busy = !outstanding_.empty() || !backlog_.empty();
    // 2 ms keeps completion-drain latency negligible against solve times
    // while jobs are in flight; an idle loop parks in the source for long
    // slices (interrupted early by signals or traffic either way).
    const int timeout_ms = busy ? 2 : (draining_ ? 10 : 200);
    QPLEX_RETURN_IF_ERROR(source_->Poll(timeout_ms));
    SubmitBacklog();
    DrainCompletions();
    source_->Flush();
    if ((draining_ || source_->exhausted()) && outstanding_.empty() &&
        backlog_.empty()) {
      break;
    }
  }
  source_->FinalFlush();
  if (journal_ != nullptr) {
    journal_->flush();
  }
  return outcome_;
}

void FrontEnd::OnLine(std::uint64_t conn, const std::string& line) {
  if (IsBlankOrComment(line)) {
    return;
  }
  const int line_number = ++conn_lines_[conn];
  obs::MetricsRegistry::Global().GetCounter("net.requests.received")
      .Increment();
  Result<RequestSpec> parsed =
      ParseRequestLine(line, line_number, source_->AllowsFileInputs());
  if (!parsed.ok()) {
    ++outcome_.requests;
    ++outcome_.malformed;
    obs::MetricsRegistry::Global().GetCounter("net.requests.malformed")
        .Increment();
    Reply(conn, RenderErrorLine("", parsed.status()));
    return;
  }
  Accept(conn, std::move(parsed).value());
}

void FrontEnd::Accept(std::uint64_t conn, RequestSpec spec) {
  ++outcome_.requests;
  if (spec.kind == RequestKind::kHealth) {
    // Health probes bypass admission entirely — they are how a client
    // finds out *why* it is being shed, so shedding them would be
    // self-defeating. Answered in place, never journaled.
    Reply(conn, RenderHealthLine(spec.request.label));
    ++outcome_.responses;
    return;
  }
  // Scheduler backpressure composes outward: a full admission queue parks
  // requests here; once the backlog itself is full — or the smoothed queue
  // delay has run past the shed target — further requests are shed with an
  // explicit ResourceExhausted carrying a retry_after_ms hint instead of
  // buffering without bound.
  const resilience::OverloadController::Decision admit = overload_.Admit(
      backlog_.size(), backlog_capacity_,
      scheduler_->OpenBreakerCount());
  if (!admit.admit) {
    ++outcome_.shed;
    obs::MetricsRegistry::Global().GetCounter("net.requests.shed").Increment();
    const std::string reason = admit.reason;
    const std::string message = reason == "backlog_full"
                                    ? "admission queue and backlog full"
                                    : "queue delay over shed target; "
                                      "retry later";
    Reply(conn, RenderErrorLine(spec.request.label,
                                Status::ResourceExhausted(message),
                                admit.retry_after_ms));
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kWarn, "svc", "admission_shed",
                     {{"label", spec.request.label},
                      {"reason", reason},
                      {"backlog", static_cast<std::int64_t>(backlog_.size())}});
    }
    return;
  }
  backlog_.push_back(Backlogged{conn, std::move(spec)});
  SubmitBacklog();
}

void FrontEnd::OnProtocolError(std::uint64_t conn, const Status& violation) {
  ++outcome_.malformed;
  Reply(conn, RenderErrorLine("", violation));
}

void FrontEnd::OnClose(std::uint64_t conn) {
  conn_lines_.erase(conn);
  conn_outstanding_.erase(conn);  // the server forgot the pin with the fd
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "net", "conn_close",
                   {{"conn", static_cast<std::int64_t>(conn)}});
  }
}

void FrontEnd::CancelAdmitted() {
  for (const auto& [id, route] : outstanding_) {
    scheduler_->Cancel(id);
  }
  backlog_.clear();
  // Cancelled jobs answer with truncated incumbents: journaling them would
  // make a resumed run skip work it must redo with a full budget.
  journal_ = nullptr;
  journal_lines_.clear();
}

void FrontEnd::Reply(std::uint64_t conn, const std::string& line) {
  source_->Send(conn, line + "\n");
}

void FrontEnd::SubmitBacklog() {
  while (!backlog_.empty()) {
    Backlogged& next = backlog_.front();
    Result<JobId> submitted =
        next.spec.backends.empty()
            ? scheduler_->Submit(next.spec.request)
            : scheduler_->SubmitPortfolio(next.spec.request,
                                          next.spec.backends);
    if (!submitted.ok()) {
      if (submitted.status().code() == StatusCode::kResourceExhausted &&
          !outstanding_.empty()) {
        return;  // queue full: retry after the next completion drains
      }
      // Unknown backend, or a portfolio wider than the whole admission
      // queue: a per-request error, not a server fault.
      Reply(next.conn,
            RenderErrorLine(next.spec.request.label, submitted.status()));
      ++outcome_.failures;
      backlog_.pop_front();
      continue;
    }
    outstanding_.emplace(
        submitted.value(),
        Route{next.conn, next.spec.request.label, next_admission_++});
    // Pin the connection against the idle timeout while it has admitted
    // work in the scheduler: its inbound side may go silent for the whole
    // solve, and idling it out would drop the response it is owed.
    if (++conn_outstanding_[next.conn] == 1) {
      source_->SetIdleExempt(next.conn, true);
    }
    obs::MetricsRegistry::Global()
        .GetGauge("net.requests.outstanding_max")
        .SetMax(static_cast<double>(outstanding_.size()));
    backlog_.pop_front();
  }
}

void FrontEnd::DrainCompletions() {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    SolveResponse response;
    if (!scheduler_->TryWait(it->first, &response)) {
      ++it;
      continue;
    }
    const Route route = std::move(it->second);
    it = outstanding_.erase(it);
    if (auto pinned = conn_outstanding_.find(route.conn);
        pinned != conn_outstanding_.end() && --pinned->second == 0) {
      conn_outstanding_.erase(pinned);
      source_->SetIdleExempt(route.conn, false);
    }
    overload_.RecordQueueDelay(response.metrics.queue_seconds * 1e3);
    if (!response.status.ok()) {
      ++outcome_.failures;
    }
    ++outcome_.responses;
    const std::string line = RenderResponseLine(route.label, response) + "\n";
    source_->Send(route.conn, line);
    if (journal_ != nullptr) {
      // Journal in admission order, not completion order: park the line
      // in the reorder buffer until every earlier admission has landed.
      journal_lines_.emplace(route.admission, line);
      while (!journal_lines_.empty() &&
             journal_lines_.begin()->first == journal_flushed_) {
        *journal_ << journal_lines_.begin()->second << std::flush;
        journal_lines_.erase(journal_lines_.begin());
        ++journal_flushed_;
      }
    }
  }
}

std::string FrontEnd::RenderHealthLine(const std::string& label) const {
  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("label", label);
  line.Set("status", std::string(StatusCodeName(StatusCode::kOk)));
  line.Set("type", "health");
  line.Set("draining", draining_);
  line.Set("backlog", static_cast<std::int64_t>(backlog_.size()));
  line.Set("outstanding", static_cast<std::int64_t>(outstanding_.size()));
  line.Set("queue_depth", static_cast<std::int64_t>(scheduler_->QueueDepth()));
  line.Set("requests", outcome_.requests);
  line.Set("responses", outcome_.responses);
  line.Set("shed", outcome_.shed);
  line.Set("delay_ewma_ms", overload_.delay_ewma_ms());
  line.Set("watchdog_kills", scheduler_->WatchdogKills());
  line.Set("breakers_enabled", scheduler_->breakers_enabled());
  line.Set("open_breakers", scheduler_->OpenBreakerCount());
  obs::JsonValue breakers = obs::JsonValue::Array();
  for (const resilience::BreakerSnapshot& snapshot :
       scheduler_->BreakerSnapshots()) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("backend", snapshot.backend);
    entry.Set("state",
              std::string(resilience::BreakerStateName(snapshot.state)));
    entry.Set("consecutive_failures", snapshot.consecutive_failures);
    entry.Set("cooldown_remaining", snapshot.cooldown_remaining);
    entry.Set("opened", snapshot.opened);
    entry.Set("closed", snapshot.closed);
    entry.Set("short_circuits", snapshot.short_circuits);
    entry.Set("probes", snapshot.probes);
    breakers.Append(std::move(entry));
  }
  line.Set("breakers", std::move(breakers));
  return line.Dump();
}

Result<std::vector<JournalEntry>> ReadJournal(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(const std::string text, net::SlurpFile(path));
  std::vector<JournalEntry> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    if (!parsed.ok() || !parsed.value().is_object()) {
      break;
    }
    const obs::JsonValue* label = parsed.value().Find("label");
    const obs::JsonValue* status = parsed.value().Find("status");
    if (label == nullptr || !label->is_string() || status == nullptr ||
        !status->is_string()) {
      break;
    }
    entries.push_back(
        JournalEntry{label->AsString(), status->AsString(), line});
  }
  return entries;
}

Result<std::unique_ptr<SocketSource>> SocketSource::Create(
    net::ServerOptions options, FrontEnd* front_end) {
  options.busy_response =
      RenderErrorLine("", Status::ResourceExhausted(
                              "server at max connections")) +
      "\n";
  net::ServerCallbacks callbacks;
  callbacks.on_line = [front_end](std::uint64_t conn, std::string line) {
    front_end->OnLine(conn, line);
  };
  callbacks.on_close = [front_end](std::uint64_t conn) {
    front_end->OnClose(conn);
  };
  callbacks.on_protocol_error = [front_end](std::uint64_t conn,
                                            const Status& violation) {
    front_end->OnProtocolError(conn, violation);
  };
  std::unique_ptr<SocketSource> source(new SocketSource(front_end));
  QPLEX_ASSIGN_OR_RETURN(source->server_,
                         net::Server::Create(std::move(options),
                                             std::move(callbacks)));
  return source;
}

void SocketSource::Stop() {
  // Graceful drain: no new connections, no new reads beyond what is already
  // buffered; in-flight and backlogged jobs run to completion and every
  // response flushes before exit.
  server_->StopAccepting();
  if (obs::EventsEnabled()) {
    obs::EmitEvent(
        obs::EventLevel::kInfo, "net", "draining",
        {{"outstanding", static_cast<std::int64_t>(front_end_->outstanding())},
         {"backlog", static_cast<std::int64_t>(front_end_->backlog())}});
  }
}

Status BatchSource::Poll(int timeout_ms) {
  bool fed = false;
  while (!exhausted() && front_end_->backlog() == 0) {
    front_end_->Accept(0, std::move(specs_[next_++]));
    fed = true;
  }
  if (!fed) {
    // Nothing to hand over: wait out the tick for completions to land.
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
  }
  return Status::Ok();
}

void BatchSource::Stop() {
  next_ = specs_.size();
  front_end_->CancelAdmitted();
}

}  // namespace qplex::svc
