#include "anneal/parallel_tempering.h"

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {

Result<AnnealResult> ParallelTempering::Run(const QuboModel& model) const {
  if (options_.num_replicas < 2) {
    return Status::InvalidArgument("need at least 2 replicas");
  }
  if (options_.rounds < 1) {
    return Status::InvalidArgument("rounds must be positive");
  }

  obs::TraceSpan span("anneal.pt");
  obs::ProgressHeartbeat heartbeat("anneal.pt");
  const int n = model.num_variables();
  const int R = options_.num_replicas;
  constexpr int kSweepsPerRound = ParallelTemperingOptions::kSweepsPerRound;
  const Deadline deadline = Deadline::After(options_.time_limit_seconds);
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t moves_accepted = 0;
  std::int64_t swaps_accepted = 0;

  // Geometric beta ladder: replica 0 hottest, R-1 coldest.
  const std::vector<double> betas = anneal_internal::GeometricLadder(
      ParallelTemperingOptions::kBetaMin, ParallelTemperingOptions::kBetaMax,
      R);

  std::vector<QuboSample> replicas;
  std::vector<double> energies;
  replicas.reserve(R);
  for (int r = 0; r < R; ++r) {
    replicas.push_back(anneal_internal::RandomSample(n, rng));
    energies.push_back(model.Evaluate(replicas.back()));
  }

  // Every round that starts runs to its exchange and record, even when the
  // deadline cuts its sweeps short, so shots counts the rounds begun.
  for (int round = 0; round < options_.rounds && result.completed; ++round) {
    // Metropolis sweeps per replica at its own temperature.
    for (int r = 0; r < R && result.completed; ++r) {
      for (int sweep = 0; sweep < kSweepsPerRound; ++sweep) {
        if (StopRequested(deadline, options_.cancel)) {
          result.completed = false;
          break;
        }
        moves_accepted += anneal_internal::MetropolisSweep(
            model, betas[r], rng, &replicas[r], &energies[r]);
        ++result.sweeps;
      }
    }
    // Replica-exchange: swap adjacent temperatures with the Metropolis
    // acceptance exp((beta_a - beta_b)(E_a - E_b)).
    for (int r = 0; r + 1 < R; ++r) {
      const double log_accept =
          (betas[r] - betas[r + 1]) * (energies[r] - energies[r + 1]);
      if (log_accept >= 0 || rng.UniformDouble() < std::exp(log_accept)) {
        std::swap(replicas[r], replicas[r + 1]);
        std::swap(energies[r], energies[r + 1]);
        ++swaps_accepted;
      }
    }
    ++result.shots;
    result.modeled_micros += kMicrosPerSweep * kSweepsPerRound * R;
    // Record the coldest replica (and implicitly the global best).
    anneal_internal::RecordSample(model, replicas[R - 1],
                                  result.modeled_micros, &result, &heartbeat,
                                  &options_.hooks);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  if (obs::EventsEnabled()) {
    // Final replica ladder: one event with the per-replica beta/energy
    // vectors, so the convergence view can show where each temperature
    // ended up and how mobile the ladder was (swap acceptance).
    obs::JsonValue beta_array = obs::JsonValue::Array();
    obs::JsonValue energy_array = obs::JsonValue::Array();
    for (int r = 0; r < R; ++r) {
      beta_array.Append(betas[r]);
      energy_array.Append(energies[r]);
    }
    obs::EmitEvent(obs::EventLevel::kInfo, "anneal.pt", "replicas",
                   {{"trace", std::string(obs::CurrentTraceToken())},
                    {"betas", std::move(beta_array)},
                    {"energies", std::move(energy_array)},
                    {"rounds", result.shots},
                    {"swaps_accepted", swaps_accepted},
                    {"completed", result.completed}});
  }
  anneal_internal::FlushSweepCounters("anneal.pt", "rounds", result, n,
                                      moves_accepted);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("anneal.pt.swap_attempts")
      .Add(static_cast<std::int64_t>(result.shots) * (R - 1));
  registry.GetCounter("anneal.pt.swaps_accepted").Add(swaps_accepted);
  return result;
}

}  // namespace qplex
