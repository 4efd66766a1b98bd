// qplex_bench: the compiled half of the benchmark.
//
//   qplex_bench client --workload W --seed S --seconds T --port P --out DIR
//   qplex_bench replay --workload W --seed S --served FILE --out FILE
//                      --spans FILE
//
// `client` generates the workload's request pool, drives a running
// qplex_serve for T seconds and checks every answer; `replay` re-runs the
// served answer window in-process under spans. run.py orchestrates both.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"

namespace qplex::bench {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

int Usage() {
  std::cerr << "usage: qplex_bench client --workload W --seed S --seconds T "
               "--port P --out DIR\n"
               "       qplex_bench replay --workload W --seed S --served FILE "
               "--out FILE --spans FILE\n";
  return 2;
}

int CountLines(const std::string& path) {
  std::ifstream in(path);
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    flags[argv[i]] = argv[i + 1];
  }
  auto flag = [&](const std::string& name) -> const std::string& {
    static const std::string kEmpty;
    const auto found = flags.find(name);
    return found == flags.end() ? kEmpty : found->second;
  };
  const std::string& name = flag("--workload");
  const std::uint64_t seed = std::strtoull(flag("--seed").c_str(), nullptr, 10);

  if (command == "client") {
    ClientConfig config;
    config.seconds = std::atof(flag("--seconds").c_str());
    config.port = std::atoi(flag("--port").c_str());
    config.out_dir = flag("--out");
    Workload workload;
    if (config.seconds <= 0 || config.port <= 0 || config.out_dir.empty() ||
        !MakeWorkload(name, seed, PoolSize(name, config.seconds), &workload)) {
      return Usage();
    }
    return RunClient(workload, config);
  }
  if (command == "replay") {
    ReplayConfig config;
    config.served_path = flag("--served");
    config.out_path = flag("--out");
    config.spans_path = flag("--spans");
    Workload workload;
    if (config.served_path.empty() || config.out_path.empty() ||
        config.spans_path.empty() ||
        !MakeWorkload(name, seed, CountLines(config.served_path),
                      &workload)) {
      return Usage();
    }
    return RunReplay(workload, SideProbes(name, seed), config);
  }
  return Usage();
}

}  // namespace qplex::bench

int main(int argc, char** argv) { return qplex::bench::Main(argc, argv); }
