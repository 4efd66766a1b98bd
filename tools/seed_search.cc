// Offline calibration utility: finds G(n, m) seeds whose maximum k-plex
// sizes match the optima the paper reports for its synthetic datasets
// (Tables III and IV). The winning seeds are hardcoded in
// src/workload/datasets.cc; re-run this tool if the generator changes.

#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "svc/registry.h"

namespace qplex {
namespace {

/// Finds the first seed in [1, limit] for which G(n, m) has the target
/// maximum k-plex size for every (k, size) requirement.
void Search(const char* name, int n, int m,
            const std::vector<std::pair<int, int>>& requirements,
            std::uint64_t limit = 5000) {
  static const svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  const svc::Solver& enumerate = *registry.Get("enum");
  svc::SolveRequest request;
  for (std::uint64_t seed = 1; seed <= limit; ++seed) {
    request.graph = RandomGnm(n, m, seed).value();
    bool ok = true;
    for (const auto& [k, want] : requirements) {
      request.k = k;
      if (enumerate.Solve(request, {}).value().solution.size != want) {
        ok = false;
        break;
      }
    }
    if (ok) {
      std::cout << name << ": seed " << seed << "\n";
      return;
    }
  }
  std::cout << name << ": NO SEED FOUND within limit\n";
}

}  // namespace
}  // namespace qplex

int main() {
  using qplex::Search;
  Search("G_{7,8}   (k=2 -> 4)", 7, 8, {{2, 4}});
  Search("G_{8,10}  (k=2 -> 4)", 8, 10, {{2, 4}});
  Search("G_{9,15}  (k=2 -> 5)", 9, 15, {{2, 5}});
  Search("G_{10,23} (k=2 -> 6)", 10, 23, {{2, 6}});
  Search("G_{10,37} (k=2..5 -> 6,6,6,7)", 10, 37,
         {{2, 6}, {3, 6}, {4, 6}, {5, 7}});
  return 0;
}
