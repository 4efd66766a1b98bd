#!/usr/bin/env python3
"""The qplex benchmark: one workload against the real serving path.

    python3 perfbench/run.py --workload gate_qmkp --seed 1 --seconds 20 --trace 0

Builds qplex_serve and the benchmark's own client/replay program from the
checkout (perfbench/CMakeLists.txt, into .bench_build/perfbench), then:

  --trace 0  starts `qplex_serve --listen` several times to time set-up,
             drives the last server with the closed-loop client for
             --seconds, checks every answer, drains the server with SIGTERM
             and prints every end-to-end metric.
  --trace 1  does the same serve run, then a second one with --events to
             split each round trip into queue, exec and overhead, then the
             traced in-process replay; prints every per-layer metric.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every check passed. See README.md.
"""

import argparse
import bisect
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "perfbench-runs")
SERVE = os.path.join(BUILD, "qplex_tools", "qplex_serve")
BENCH = os.path.join(BUILD, "qplex_bench")

WORKLOADS = ("gate_qmkp", "qubo_solvers", "serve_mix")
# Every run starts the server with these flags: two workers, the journal on
# and the default 256-entry instance cache.
SERVER_FLAGS = ["--workers", "2"]
SETUP_SPAWNS = 21     # set-up is timed this many times per run; median kept
RUN_LIMIT_S = 170     # every run ends within this, passing or not
STOP_WAIT_S = 30      # SIGTERM drain allowance
# After a multi-core compile, timings on a shared host stay disturbed for a
# while; a run that had to build waits this long before measuring.
COOL_DOWN_S = 30

class BenchError(Exception):
    """A check failed; the run prints no result and exits non-zero."""


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its %d s limit" % RUN_LIMIT_S)
    return left


def built_stamp():
    return [os.path.getmtime(path) if os.path.exists(path) else None
            for path in (SERVE, BENCH)]


def build():
    """Builds (or brings up to date) both binaries; True if anything changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("qplex sources (src/, tools/) not found at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "qplex_serve", "qplex_bench"])
    before = built_stamp()
    with open(log_path, "a") as log:
        for step in steps:
            # The first build takes minutes; the run limit starts after it.
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                raise BenchError("build failed; see " + log_path)
    return built_stamp() != before


class Server:
    """One qplex_serve --listen process owned by the benchmark."""

    def __init__(self, run_dir, tag, events, deadline):
        self.paths = {
            name: os.path.join(run_dir, "%s.%s" % (tag, name))
            for name in ("port", "wal", "metrics.json", "events.jsonl", "log")
        }
        for path in self.paths.values():
            if os.path.exists(path):
                os.remove(path)
        command = [SERVE, "--listen", "0", "--port-file", self.paths["port"],
                   "--journal", self.paths["wal"],
                   "--metrics-json", self.paths["metrics.json"]] + SERVER_FLAGS
        if events:
            command += ["--events", self.paths["events.jsonl"]]
        self.log = open(self.paths["log"], "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=self.log,
                                     stderr=subprocess.STDOUT, cwd=run_dir)
        try:
            self.port = self._wait_port(deadline)
            self._probe_health()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_port(self, deadline):
        path = self.paths["port"]
        while True:
            remaining(deadline)
            if self.proc.poll() is not None:
                raise BenchError("qplex_serve exited with %d during set-up"
                                 % self.proc.returncode)
            try:
                with open(path) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.0001)

    def _probe_health(self):
        with socket.create_connection(("127.0.0.1", self.port), 10) as conn:
            conn.sendall(b'{"type":"health","id":"setup"}\n')
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    raise BenchError("health probe got no answer")
                reply += chunk
        answer = json.loads(reply)
        if answer.get("type") != "health" or answer.get("status") != "OK":
            raise BenchError("bad health answer: " + reply.decode())

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self, deadline):
        """SIGTERM drain; the server must exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(min(STOP_WAIT_S, remaining(deadline)))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("qplex_serve did not drain within %d s"
                             % STOP_WAIT_S)
        finally:
            self.log.close()
        if code != 0:
            raise BenchError("qplex_serve exited %d after SIGTERM" % code)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def run_bench(args, deadline):
    try:
        done = subprocess.run([BENCH] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("qplex_bench %s overran the run limit" % args[0])
    sys.stderr.write(done.stderr[-4000:])
    return done.returncode


def read_served(path):
    rows = []
    with open(path) as served:
        for line in served:
            fields = line.rstrip("\n").split("\t", 7)
            rows.append({
                "id": fields[0],
                "rtt_ms": int(fields[1]) / 1e6,
                "done_s": int(fields[2]) / 1e9,
                "failed": fields[3] != "0",
                "optimum": int(fields[4]),
                "sent_bytes": int(fields[5]),
                "received_bytes": int(fields[6]),
                "response": fields[7],
            })
    return rows


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def time_setups(run_dir, tag, count, deadline):
    """Starts and drains `count` servers, returning each one's set-up time."""
    setups = []
    for i in range(count):
        probe = Server(run_dir, "%s.setup%d" % (tag, i), False, deadline)
        setups.append(probe.setup_s)
        probe.stop(deadline)
    return setups


def serve_phase(workload, seed, seconds, run_dir, tag, events, deadline):
    """Set-up timing, one timed closed-loop run, drain. Returns a summary.

    Set-up is timed on SETUP_SPAWNS servers, half before and half after the
    timed phase, so its median does not hang on one moment of the host.
    """
    setups = time_setups(run_dir, tag + ".pre", SETUP_SPAWNS // 2, deadline)
    server = Server(run_dir, tag, events, deadline)
    setups.append(server.setup_s)
    out = os.path.join(run_dir, tag)
    os.makedirs(out, exist_ok=True)
    try:
        code = run_bench(["client", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--port",
                          str(server.port), "--out", out], deadline)
        rss_mb = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    server.stop(deadline)
    setups += time_setups(run_dir, tag + ".post",
                          SETUP_SPAWNS - len(setups), deadline)
    if code not in (0, 1):
        raise BenchError("client failed with exit code %d" % code)
    with open(os.path.join(out, "client.json")) as handle:
        client = json.load(handle)
    rows = read_served(os.path.join(out, "served.tsv"))
    with open(server.paths["metrics.json"]) as handle:
        server_metrics = json.load(handle)

    problems = list(client["violations"])
    ok_rows = [row for row in rows if not row["failed"]]
    if not ok_rows:
        raise BenchError("no request was answered OK")
    window = client["answer_window"]
    if len(rows) < max(window, client["min_requests"]):
        problems.append("only %d requests completed; a run needs %d"
                        % (len(rows), max(window, client["min_requests"])))
    window_rows = rows[:window]
    digest = hashlib.sha256("".join(
        row["response"] + "\n" for row in window_rows).encode()).hexdigest()
    quality = [0.0 if row["failed"] else
               json.loads(row["response"])["size"] / row["optimum"]
               for row in window_rows]
    # Timings come from the clean windows only (see client.cc): throughput
    # counts answers that arrived in one, and the round-trip percentiles use
    # requests that were sent and answered inside a run of them. A failed,
    # shed or timed-out request always counts, as slower than any answer.
    windows = client["windows"]
    clean = [flag for _, _, _, flag in windows]

    def clean_time():
        return sum(end - begin for (begin, end, _, _), ok in zip(windows, clean)
                   if ok)

    if clean_time() < 0.25 * seconds:
        # Steal never let up: time the less-stolen half rather than fail.
        cutoff = statistics.median(steal for _, _, steal, _ in windows)
        clean = [steal <= cutoff for _, _, steal, _ in windows]
    clean_s = clean_time()
    starts = [begin for begin, _, _, _ in windows]
    dirty_before = [0]
    for ok in clean:
        dirty_before.append(dirty_before[-1] + (not ok))

    def window_of(t):
        return max(0, bisect.bisect_right(starts, t) - 1)

    def in_clean_windows(row):
        first = window_of(row["done_s"] - row["rtt_ms"] / 1e3)
        last = window_of(row["done_s"])
        return dirty_before[last + 1] == dirty_before[first]

    for row in rows:
        row["clean"] = not row["failed"] and in_clean_windows(row)
    miss_ms = (4 * seconds + 60) * 1e3
    rtts = [miss_ms if row["failed"] else row["rtt_ms"] for row in rows
            if row["failed"] or row["clean"]]
    if not rtts:  # no request fit inside clean windows: time them all
        rtts = [miss_ms if row["failed"] else row["rtt_ms"] for row in rows]
    answered_clean = sum(1 for row in ok_rows
                         if clean[window_of(row["done_s"])])
    return {
        "rows": rows,
        "client": client,
        "problems": problems,
        "digest": digest,
        "setup_s": statistics.median(setups),
        "throughput_rps": answered_clean / clean_s,
        "rtt_p50_ms": percentile(rtts, 50),
        "rtt_p90_ms": percentile(rtts, 90),
        "rtt_p99_ms": percentile(rtts, 99),
        "answer_quality": statistics.fmean(quality),
        "success_ratio": len(ok_rows) / len(rows),
        "server_peak_rss_mb": rss_mb,
        "server_counters": server_metrics.get("counters", {}),
        "events_path": server.paths["events.jsonl"] if events else None,
        "clean_s": clean_s,
        "dirty_windows": clean.count(False),
        "rtt_samples": len(rtts),
    }


def job_ends(path):
    ends = {}
    with open(path) as events:
        for line in events:
            if '"job_end"' not in line:
                continue
            event = json.loads(line)
            if event.get("event") == "job_end":
                ends[event["label"]] = event
    return ends


def layer_metrics(base, traced, replay):
    counters = base["server_counters"]
    hits = counters.get("svc.cache.hits", 0)
    lookups = hits + counters.get("svc.cache.misses", 0)
    rows = base["rows"]
    ok_rows = [row for row in rows if not row["failed"]]
    metrics = dict(replay["metrics"])
    metrics["svc.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["svc.cache_evictions"] = counters.get("svc.cache.evictions", 0)
    metrics["svc.retries"] = sum(
        json.loads(row["response"]).get("attempts", 1) - 1 for row in ok_rows)
    metrics["net.bytes_in_per_request"] = (
        sum(row["sent_bytes"] for row in rows) / len(rows))
    metrics["net.bytes_out_per_request"] = (
        sum(row["received_bytes"] for row in ok_rows) / len(ok_rows))
    ends = job_ends(traced["events_path"])
    queue, execute, overhead = [], [], []
    for row in traced["rows"]:
        end = ends.get(row["id"])
        if not row["clean"] or end is None:
            continue
        queue_ms = end["queue_seconds"] * 1e3
        exec_ms = end["wall_seconds"] * 1e3
        queue.append(queue_ms)
        execute.append(exec_ms)
        overhead.append((row["rtt_ms"] - queue_ms - exec_ms) * 1e3)
    if not queue:
        raise BenchError("no job_end event matched a served request")
    metrics["svc.queue_wait_ms_p50"] = percentile(queue, 50)
    metrics["svc.queue_wait_ms_p90"] = percentile(queue, 90)
    metrics["svc.exec_ms_p50"] = percentile(execute, 50)
    metrics["svc.overhead_us_p50"] = percentile(overhead, 50)
    metrics["svc.overhead_us_p99"] = percentile(overhead, 99)
    metrics["obs.trace_overhead_ratio"] = (
        traced["throughput_rps"] / base["throughput_rps"])
    return metrics


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if build():
            time.sleep(COOL_DOWN_S)
        deadline = time.monotonic() + RUN_LIMIT_S
        end_to_end_units, per_layer_units = load_units()
        run_dir = os.path.join(RUNS, "%s-t%d" % (args.workload, args.trace))
        os.makedirs(run_dir, exist_ok=True)
        base = serve_phase(args.workload, args.seed, args.seconds, run_dir,
                           "serve", False, deadline)
        problems = list(base["problems"])
        attempted = len(base["rows"])
        failed = sum(row["failed"] for row in base["rows"])
        if args.trace == 0:
            metrics = {name: base[name] for name in end_to_end_units}
            units = end_to_end_units
        else:
            traced = serve_phase(args.workload, args.seed, args.seconds,
                                 run_dir, "events", True, deadline)
            problems += traced["problems"]
            attempted += len(traced["rows"])
            failed += sum(row["failed"] for row in traced["rows"])
            if traced["digest"] != base["digest"]:
                problems.append("answers differ between the two serve runs")
            replay_out = os.path.join(run_dir, "replay.json")
            code = run_bench(
                ["replay", "--workload", args.workload, "--seed",
                 str(args.seed), "--served",
                 os.path.join(run_dir, "serve", "served.tsv"),
                 "--out", replay_out,
                 "--spans", os.path.join(run_dir, "spans.jsonl")], deadline)
            with open(replay_out) as handle:
                replay = json.load(handle)
            if code != 0:
                problems.append("replay failed (%d mismatches)"
                                % len(replay["mismatches"]))
            problems += replay["mismatches"]
            metrics = layer_metrics(base, traced, replay)
            units = per_layer_units
            missing = set(units) - set(metrics)
            if missing:
                raise BenchError("per-layer metrics not produced: "
                                 + ", ".join(sorted(missing)))
            metrics = {name: metrics[name] for name in units}
    except BenchError as error:
        print("benchmark failed: %s" % error, file=sys.stderr)
        return 1

    samples = len(base["rows"])
    print("workload %s seed %d: %d requests over %.3f s on %d connections"
          % (args.workload, args.seed, samples, base["client"]["elapsed_s"],
             base["client"]["connections"]))
    print("answers_digest %s (first %d answers)"
          % (base["digest"], base["client"]["answer_window"]))
    print("fail_ratio %.6f (%d of %d)" % (failed / attempted, failed,
                                          attempted))
    print("timed over %.1f s of clean windows (%d round trips); %d window(s) "
          "left out for host CPU steal"
          % (base["clean_s"], base["rtt_samples"], base["dirty_windows"]))
    if base["client"]["pool_exhausted"]:
        print("note: request pool exhausted before --seconds elapsed")
    for name, value in metrics.items():
        print("%-34s %14.6f %-6s n=%d" % (name, value, units[name], samples))
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
