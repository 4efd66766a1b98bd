#ifndef QPLEX_ANNEAL_PARALLEL_TEMPERING_H_
#define QPLEX_ANNEAL_PARALLEL_TEMPERING_H_

#include <cstdint>

#include "anneal/annealer.h"
#include "common/cancel.h"

namespace qplex {

/// Parallel tempering (replica exchange) over a QUBO: several Metropolis
/// chains at a geometric ladder of temperatures, with periodic
/// configuration swaps between adjacent temperatures. A stronger classical
/// sampler than plain SA on rugged landscapes like the slack-encoded qaMKP
/// objective; used as an ablation baseline.
struct ParallelTemperingOptions {
  /// The replicas' inverse temperatures rise geometrically from kBetaMin
  /// (replica 0) to kBetaMax (the coldest, recorded replica).
  static constexpr double kBetaMin = 0.05;
  static constexpr double kBetaMax = 8.0;
  /// Sweeps each replica makes between replica-exchange rounds; each costs
  /// kMicrosPerSweep of modeled time.
  static constexpr int kSweepsPerRound = 4;

  int num_replicas = 8;
  /// Replica-exchange rounds; AnnealResult::shots counts those begun.
  int rounds = 64;
  /// Wall-clock budget; <= 0 is unlimited. Checked every replica sweep; on
  /// expiry the incumbent is returned with `completed == false`.
  double time_limit_seconds = 0;
  /// Optional cooperative cancellation; polled with the deadline.
  const CancelToken* cancel = nullptr;
  std::uint64_t seed = 1;
  /// Observer callbacks (best-energy improvements); all optional.
  AnnealHooks hooks;
};

class ParallelTempering {
 public:
  explicit ParallelTempering(ParallelTemperingOptions options = {})
      : options_(options) {}

  Result<AnnealResult> Run(const QuboModel& model) const;

 private:
  ParallelTemperingOptions options_;
};

}  // namespace qplex

#endif  // QPLEX_ANNEAL_PARALLEL_TEMPERING_H_
