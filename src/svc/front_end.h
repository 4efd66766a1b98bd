#ifndef QPLEX_SVC_FRONT_END_H_
#define QPLEX_SVC_FRONT_END_H_

/// \file
/// The serving front-end behind qplex_serve: one request path however the
/// requests arrive. A LineSource delivers them (SocketSource: a loopback
/// net::Server; BatchSource: a validated job file) and FrontEnd runs each
/// through the same stages: admission (shed with a retry_after_ms hint, or
/// park in the backlog) -> Submit/SubmitPortfolio as the admission queue
/// frees up -> TryWait completion drain -> response line to the source ->
/// WAL line in admission order (reorder buffer).
///
/// FrontEnd::Run is the one serve loop. The library installs no signal
/// handlers: the caller's tick callback asks for a stop, and the source
/// decides what stopping means (the socket stops accepting and drains; the
/// batch stops feeding and calls CancelAdmitted()).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/server.h"
#include "resilience/health.h"
#include "svc/request.h"
#include "svc/scheduler.h"

namespace qplex::svc {

/// Run totals for the batch_end event and the metrics report.
struct ServeOutcome {
  std::int64_t requests = 0;   ///< requests received, malformed included
  std::int64_t responses = 0;  ///< answers rendered, health probes included
  std::int64_t failures = 0;   ///< non-OK answers, journal replays included
  std::int64_t malformed = 0;  ///< unparseable lines and framing violations
  std::int64_t shed = 0;       ///< requests refused by admission control
  std::int64_t skipped = 0;    ///< jobs satisfied from the journal
  bool interrupted = false;    ///< the tick callback asked for a stop
};

/// Where requests come from and where responses go. A source hands
/// requests to its FrontEnd from inside Poll().
class LineSource {
 public:
  virtual ~LineSource() = default;
  /// One input step that blocks for at most `timeout_ms`.
  virtual Status Poll(int timeout_ms) = 0;
  /// True once no further request can arrive.
  virtual bool exhausted() const = 0;
  /// Stops taking input; called once, when the tick callback asks to stop.
  virtual void Stop() = 0;
  /// Queues one response line (newline included) for connection `conn`.
  virtual void Send(std::uint64_t conn, std::string line) = 0;
  /// Exempts `conn` from idle closes while it is owed a response.
  virtual void SetIdleExempt(std::uint64_t /*conn*/, bool /*exempt*/) {}
  /// Pushes queued responses out: every tick, and a bounded tail at exit.
  virtual void Flush() {}
  virtual void FinalFlush() {}
  /// Whether a request line may name a graph file on this host ("input").
  /// A source whose lines come from remote clients says no: they send their
  /// graph inline.
  virtual bool AllowsFileInputs() const { return true; }
};

class FrontEnd {
 public:
  /// Past `backlog_capacity` parked requests, or once the smoothed queue
  /// delay runs past `shed_target_ms` (0 = off), requests are shed.
  /// `journal` (may be null) gets one line per answer, in admission order.
  FrontEnd(JobScheduler* scheduler, std::size_t backlog_capacity,
           double shed_target_ms, std::ostream* journal);

  /// The serve loop: Poll the source, submit the backlog, drain
  /// completions, flush. `tick` runs first in every iteration; true asks
  /// for a stop. Returns once the source is exhausted or stopped and every
  /// admitted request is answered; an error only if the source fails.
  Result<ServeOutcome> Run(LineSource* source,
                           const std::function<bool()>& tick);

  /// One raw line from `conn`: blank and '#' lines are skipped, malformed
  /// ones (file inputs included, unless the source allows them) answered
  /// with an error line, the rest Accept()ed.
  void OnLine(std::uint64_t conn, const std::string& line);
  /// One parsed request: health probes are answered in place, never
  /// journaled; solve requests pass admission into the backlog or are shed.
  void Accept(std::uint64_t conn, RequestSpec spec);
  void OnProtocolError(std::uint64_t conn, const Status& violation);
  /// `conn` is gone. Its admitted jobs keep running and keep their journal
  /// slots; only their responses are dropped.
  void OnClose(std::uint64_t conn);
  /// Cancels every admitted job, drops the backlog and stops journaling, so
  /// the WAL stays a clean admission-order prefix of the uninterrupted run.
  void CancelAdmitted();

  std::size_t backlog() const { return backlog_.size(); }
  std::size_t outstanding() const { return outstanding_.size(); }

 private:
  struct Route {
    std::uint64_t conn = 0;
    std::string label;            ///< the client's request id
    std::uint64_t admission = 0;  ///< journal reorder position
  };
  struct Backlogged {
    std::uint64_t conn = 0;
    RequestSpec spec;
  };

  void Reply(std::uint64_t conn, const std::string& line);
  void SubmitBacklog();
  void DrainCompletions();
  /// The {"type": "health"} answer from live state (DESIGN.md section 15).
  std::string RenderHealthLine(const std::string& label) const;

  JobScheduler* scheduler_;
  const std::size_t backlog_capacity_;
  std::ostream* journal_;
  resilience::OverloadController overload_;
  LineSource* source_ = nullptr;
  std::deque<Backlogged> backlog_;
  std::map<JobId, Route> outstanding_;
  std::unordered_map<std::uint64_t, int> conn_lines_;
  /// Unanswered jobs per connection; non-zero pins it against idle closes.
  std::unordered_map<std::uint64_t, int> conn_outstanding_;
  std::map<std::uint64_t, std::string> journal_lines_;
  std::uint64_t next_admission_ = 0;
  std::uint64_t journal_flushed_ = 0;
  bool draining_ = false;
  ServeOutcome outcome_;
};

/// One line of a WAL the front-end wrote.
struct JournalEntry {
  std::string label;
  std::string status;
  std::string line;  ///< the raw serialized form, without the newline
};

/// Reads the valid prefix of a WAL. A torn tail line (the process died
/// mid-write) is dropped; anything after the first malformed line is
/// discarded with it. NotFound when the file cannot be opened.
Result<std::vector<JournalEntry>> ReadJournal(const std::string& path);

/// Socket mode: a loopback net::Server wired to the front-end. Stop()
/// closes the listener; the loop then drains the backlog and every
/// in-flight job before returning. `front_end` must outlive the source:
/// the server reports its remaining connections closed on destruction.
class SocketSource : public LineSource {
 public:
  static Result<std::unique_ptr<SocketSource>> Create(
      net::ServerOptions options, FrontEnd* front_end);

  const net::Server& server() const { return *server_; }

  Status Poll(int timeout_ms) override { return server_->Poll(timeout_ms); }
  bool exhausted() const override { return false; }
  void Stop() override;
  void Send(std::uint64_t conn, std::string line) override {
    server_->Send(conn, std::move(line));
  }
  void SetIdleExempt(std::uint64_t conn, bool exempt) override {
    server_->SetIdleExempt(conn, exempt);
  }
  void Flush() override { server_->FlushWritable(); }
  void FinalFlush() override { server_->DrainWrites(/*timeout_ms=*/2000); }
  bool AllowsFileInputs() const override { return false; }

 private:
  explicit SocketSource(FrontEnd* front_end) : front_end_(front_end) {}

  FrontEnd* front_end_;
  std::unique_ptr<net::Server> server_;
};

/// Batch mode: feeds the job file in order, one request at a time and only
/// while the backlog is empty, so batch admission never sheds. Answers go
/// to the journal alone. Stop() ends feeding and calls CancelAdmitted().
class BatchSource : public LineSource {
 public:
  BatchSource(std::vector<RequestSpec> specs, FrontEnd* front_end)
      : specs_(std::move(specs)), front_end_(front_end) {}

  Status Poll(int timeout_ms) override;
  bool exhausted() const override { return next_ == specs_.size(); }
  void Stop() override;
  void Send(std::uint64_t /*conn*/, std::string /*line*/) override {}

 private:
  std::vector<RequestSpec> specs_;
  std::size_t next_ = 0;
  FrontEnd* front_end_;
};

}  // namespace qplex::svc

#endif  // QPLEX_SVC_FRONT_END_H_
