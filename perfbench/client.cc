// The closed-loop client. One process, one thread, poll() over the lockstep
// connections: each connection sends its next request only after the reply
// to the previous one has arrived, and the next request id comes from one
// shared counter, so the requests answered form a prefix of the stream.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "bench.h"
#include "classical/bs_solver.h"
#include "graph/kplex.h"
#include "obs/json.h"

namespace qplex::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Requests still unanswered this long after sending stopped are given up
/// as timed out, so a wedged server cannot hold the run past its limit.
constexpr double kGraceSeconds = 30;

/// The timed phase is cut into windows of this length. A window in which
/// the hypervisor gave more than kCleanSteal of the machine's CPU time to
/// other guests is not clean: on a shared host such windows run up to twice
/// as slow, so metrics are taken over clean windows only, and the loop runs
/// on until it has --seconds of them.
constexpr double kWindowSeconds = 1.0;
constexpr double kCleanSteal = 0.02;

struct CpuTicks {
  bool ok = false;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

/// Machine-wide jiffies from the first line of /proc/stat.
CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  in >> label;
  CpuTicks ticks;
  for (std::uint64_t& field : fields) {
    in >> field;
    ticks.total += field;
  }
  ticks.ok = static_cast<bool>(in) && label == "cpu";
  ticks.steal = fields[7];
  return ticks;
}

struct Window {
  double start_s = 0;
  double end_s = 0;
  double steal = 0;  ///< share of CPU time stolen during the window
  bool clean = true;
};

struct Connection {
  int fd = -1;
  std::string inbox;
  int in_flight = -1;  ///< request index, -1 when idle
  Clock::time_point sent_at;
};

struct Record {
  std::int64_t rtt_ns = 0;
  std::int64_t done_ns = 0;  ///< answer arrival, from the start of the run
  std::string response;
  bool timed_out = false;
  std::size_t sent_bytes = 0;
  std::size_t received_bytes = 0;
};

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + done, bytes.size() - done,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Checks one OK answer. Returns an empty string when it is correct.
std::string CheckAnswer(const obs::JsonValue& answer, const Graph& graph,
                        int k, int optimum) {
  const obs::JsonValue* size = answer.Find("size");
  const obs::JsonValue* members = answer.Find("members");
  const obs::JsonValue* optimal = answer.Find("provably_optimal");
  if (size == nullptr || !size->is_int() || members == nullptr ||
      !members->is_string() || optimal == nullptr || !optimal->is_bool()) {
    return "answer lacks size/members/provably_optimal";
  }
  VertexBitset chosen(graph.num_vertices());
  int count = 0;
  std::istringstream in(members->AsString());
  long long v = 0;
  while (in >> v) {
    if (v < 0 || v >= graph.num_vertices() ||
        chosen.Test(static_cast<Vertex>(v))) {
      return "member " + std::to_string(v) + " out of range or repeated";
    }
    chosen.Set(static_cast<Vertex>(v));
    ++count;
  }
  if (size->AsInt() != count) {
    return "size " + std::to_string(size->AsInt()) + " but " +
           std::to_string(count) + " members";
  }
  if (!IsKPlex(graph, chosen, k)) {
    return "members are not a " + std::to_string(k) + "-plex";
  }
  if (count > optimum) {
    return "size " + std::to_string(count) + " exceeds the optimum " +
           std::to_string(optimum);
  }
  if (optimal->AsBool() && count != optimum) {
    return "provably_optimal size " + std::to_string(count) +
           " but the optimum is " + std::to_string(optimum);
  }
  return "";
}

}  // namespace

int RunClient(const Workload& workload, const ClientConfig& config) {
  const int num_requests = static_cast<int>(workload.requests.size());
  std::vector<Connection> connections(workload.connections);
  for (Connection& connection : connections) {
    connection.fd = Connect(config.port);
    if (connection.fd < 0) {
      std::cerr << "cannot connect to port " << config.port << "\n";
      return 2;
    }
  }

  std::vector<Record> records;
  records.reserve(num_requests);
  int next = 0;
  int outstanding = 0;
  const Clock::time_point start = Clock::now();
  auto seconds_since = [](Clock::time_point from, Clock::time_point to) {
    return Nanos(to - from) / 1e9;
  };
  // Sending stops once --seconds of clean windows and the workload's minimum
  // sample count are in; on a noisy or slow host the loop runs on for up to
  // 1.5 times --seconds, and past three times --seconds it stops regardless.
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(3 * config.seconds +
                                                kGraceSeconds));
  Clock::time_point last_answer = start;
  std::vector<Window> windows;
  double clean_seconds = 0;
  Clock::time_point window_start = start;
  CpuTicks window_ticks = ReadCpuTicks();
  auto close_window = [&](Clock::time_point now) {
    const CpuTicks ticks = ReadCpuTicks();
    Window window;
    window.start_s = seconds_since(start, window_start);
    window.end_s = seconds_since(start, now);
    if (ticks.ok && window_ticks.ok && ticks.total > window_ticks.total) {
      window.steal = static_cast<double>(ticks.steal - window_ticks.steal) /
                     static_cast<double>(ticks.total - window_ticks.total);
    }
    window.clean = window.steal <= kCleanSteal;
    if (window.clean) {
      clean_seconds += window.end_s - window.start_s;
    }
    windows.push_back(window);
    window_start = now;
    window_ticks = ticks;
  };

  auto send_next = [&](Connection& connection) {
    const double elapsed = seconds_since(start, Clock::now());
    if (next >= num_requests || elapsed >= 3 * config.seconds ||
        (next >= workload.min_requests &&
         (clean_seconds >= config.seconds ||
          elapsed >= 1.5 * config.seconds))) {
      return;
    }
    const Request& request = workload.requests[next];
    const std::string line = RequestLine(workload, request) + "\n";
    records.emplace_back();
    records.back().sent_bytes = line.size();
    connection.in_flight = next++;
    ++outstanding;
    connection.sent_at = Clock::now();
    if (!SendAll(connection.fd, line)) {
      std::cerr << "send failed on request " << request.id << "\n";
    }
  };
  for (Connection& connection : connections) {
    send_next(connection);
  }

  std::vector<pollfd> fds(connections.size());
  char buffer[1 << 16];
  while (outstanding > 0) {
    const Clock::time_point now = Clock::now();
    if (now >= give_up) {
      break;
    }
    if (seconds_since(window_start, now) >= kWindowSeconds) {
      close_window(now);
    }
    for (std::size_t i = 0; i < connections.size(); ++i) {
      fds[i] = pollfd{connections[i].fd, POLLIN, 0};
    }
    const double window_left = kWindowSeconds - seconds_since(window_start, now);
    const int wait_ms = static_cast<int>(window_left * 1e3) + 1;
    if (poll(fds.data(), fds.size(), wait_ms) < 0 && errno != EINTR) {
      break;
    }
    for (std::size_t i = 0; i < connections.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      Connection& connection = connections[i];
      const ssize_t n = recv(connection.fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        std::cerr << "server closed connection " << i << "\n";
        close(connection.fd);
        connection.fd = -1;  // poll ignores negative fds
        if (connection.in_flight >= 0) {
          Record& record = records[connection.in_flight];
          record.timed_out = true;  // never answered: counts as failed
          record.rtt_ns = Nanos(Clock::now() - connection.sent_at);
          connection.in_flight = -1;
          --outstanding;
        }
        continue;
      }
      connection.inbox.append(buffer, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = connection.inbox.find('\n')) != std::string::npos) {
        const Clock::time_point arrived = Clock::now();
        std::string line = connection.inbox.substr(0, newline);
        connection.inbox.erase(0, newline + 1);
        if (connection.in_flight < 0) {
          std::cerr << "unsolicited line: " << line << "\n";
          continue;
        }
        Record& record = records[connection.in_flight];
        record.rtt_ns = Nanos(arrived - connection.sent_at);
        record.done_ns = Nanos(arrived - start);
        record.received_bytes = line.size() + 1;
        record.response = std::move(line);
        connection.in_flight = -1;
        --outstanding;
        last_answer = arrived;
        send_next(connection);
      }
    }
  }
  close_window(Clock::now());
  for (Connection& connection : connections) {
    if (connection.in_flight >= 0) {
      Record& record = records[connection.in_flight];
      record.timed_out = true;
      record.rtt_ns = Nanos(Clock::now() - connection.sent_at);
    }
    if (connection.fd >= 0) {
      close(connection.fd);
    }
  }
  const double elapsed_s = Nanos(last_answer - start) / 1e9;

  // Correctness gate, outside the timed phase: reference optima come from
  // BsSolver, memoised per (instance, k) since repeats share both.
  std::map<std::pair<int, int>, int> optima;
  std::int64_t failed = 0;
  std::int64_t timed_out = 0;
  std::vector<std::string> violations;
  std::ofstream tsv(config.out_dir + "/served.tsv", std::ios::trunc);
  for (int i = 0; i < static_cast<int>(records.size()); ++i) {
    const Request& request = workload.requests[i];
    Record& record = records[i];
    int optimum = 0;
    bool ok = false;
    if (record.timed_out) {
      ++timed_out;
    } else {
      Result<obs::JsonValue> answer = obs::JsonValue::Parse(record.response);
      const obs::JsonValue* label =
          answer.ok() ? answer.value().Find("label") : nullptr;
      const obs::JsonValue* status =
          answer.ok() ? answer.value().Find("status") : nullptr;
      if (label == nullptr || !label->is_string() || status == nullptr ||
          !status->is_string()) {
        violations.push_back(request.id + ": malformed response");
      } else if (label->AsString() != request.id) {
        violations.push_back(request.id + ": answered with label " +
                             label->AsString());
      } else if (status->AsString() == "OK") {
        const Graph graph = ToGraph(workload.instances[request.instance]);
        const auto key = std::make_pair(request.instance, request.k);
        auto found = optima.find(key);
        if (found == optima.end()) {
          BsSolver reference;
          found = optima.emplace(key, reference.Solve(graph, request.k)
                                          .value()
                                          .size)
                      .first;
        }
        optimum = found->second;
        const std::string error =
            CheckAnswer(answer.value(), graph, request.k, optimum);
        if (!error.empty()) {
          violations.push_back(request.id + ": " + error);
        }
        ok = true;
      }
    }
    if (!ok) {
      ++failed;
    }
    tsv << request.id << '\t' << record.rtt_ns << '\t' << record.done_ns
        << '\t' << (ok ? 0 : 1) << '\t'
        << optimum << '\t' << record.sent_bytes << '\t'
        << record.received_bytes << '\t' << record.response << '\n';
  }
  tsv.close();

  std::ofstream summary(config.out_dir + "/client.json", std::ios::trunc);
  summary << "{\"attempted\":" << records.size() << ",\"failed\":" << failed
          << ",\"timed_out\":" << timed_out
          << ",\"elapsed_s\":" << JsonNumber(elapsed_s)
          << ",\"pool\":" << num_requests
          << ",\"pool_exhausted\":"
          << (next >= num_requests ? "true" : "false")
          << ",\"connections\":" << workload.connections
          << ",\"answer_window\":" << workload.answer_window
          << ",\"min_requests\":" << workload.min_requests
          << ",\"windows\":[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    summary << (i == 0 ? "[" : ",[") << JsonNumber(windows[i].start_s) << ","
            << JsonNumber(windows[i].end_s) << ","
            << JsonNumber(windows[i].steal) << ","
            << (windows[i].clean ? "true" : "false") << "]";
  }
  summary << "],\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    summary << (i == 0 ? "" : ",") << JsonString(violations[i]);
  }
  summary << "]}\n";
  summary.close();
  for (const std::string& violation : violations) {
    std::cerr << "wrong answer " << violation << "\n";
  }
  return violations.empty() && summary ? 0 : 1;
}

}  // namespace qplex::bench
