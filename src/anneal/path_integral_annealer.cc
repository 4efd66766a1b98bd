#include "anneal/path_integral_annealer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/trace.h"

namespace qplex {

Result<AnnealResult> PathIntegralAnnealer::Run(const QuboModel& model) const {
  if (options_.replicas < 2) {
    return Status::InvalidArgument("need at least 2 Trotter replicas");
  }
  if (options_.shots < 1) {
    return Status::InvalidArgument("shots must be positive");
  }
  if (options_.annealing_time_micros <= 0 || options_.sweeps_per_micro <= 0) {
    return Status::InvalidArgument("annealing time must be positive");
  }

  using Options = PathIntegralAnnealerOptions;
  const int n = model.num_variables();
  const int P = options_.replicas;
  // Annealing time converts to sweeps only up to the device's saturation
  // point; the remainder of a long shot burns budget without improving it.
  const double effective_micros =
      std::min(options_.annealing_time_micros, options_.saturation_micros);
  const int sweeps_per_shot = std::max(
      1, static_cast<int>(
             std::lround(effective_micros * options_.sweeps_per_micro)));

  obs::TraceSpan span("anneal.sqa");
  obs::ProgressHeartbeat heartbeat("anneal.sqa");
  const Deadline deadline = Deadline::After(options_.time_limit_seconds);
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t flips_accepted = 0;

  std::vector<QuboSample> replicas(P);

  for (int shot = 0; shot < options_.shots && result.completed; ++shot) {
    // Fresh random configuration for every replica.
    for (QuboSample& replica : replicas) {
      replica = anneal_internal::RandomSample(n, rng);
    }

    for (int sweep = 0; sweep < sweeps_per_shot; ++sweep) {
      if (StopRequested(deadline, options_.cancel)) {
        result.completed = false;
        break;
      }
      // Linear transverse-field decay within the shot.
      const double progress =
          sweeps_per_shot == 1
              ? 1.0
              : static_cast<double>(sweep) / (sweeps_per_shot - 1);
      const double gamma =
          Options::kGammaInitial +
          progress * (Options::kGammaFinal - Options::kGammaInitial);
      // Ferromagnetic inter-replica coupling J_perp > 0 (stronger as the
      // transverse field decays, freezing the replicas together).
      anneal_internal::TrotterCoupling trotter;
      trotter.slices = P;
      trotter.j_perp = -0.5 / Options::kBeta *
                       std::log(std::tanh(Options::kBeta * gamma / P));
      for (int p = 0; p < P; ++p) {
        trotter.prev = &replicas[(p + P - 1) % P];
        trotter.next = &replicas[(p + 1) % P];
        flips_accepted += anneal_internal::MetropolisSweep(
            model, Options::kBeta, rng, &replicas[p], nullptr, &trotter);
      }
      ++result.sweeps;
    }

    // Read out the best replica of this shot.
    ++result.shots;
    result.modeled_micros += options_.annealing_time_micros;
    double best_shot_energy = 0;
    const QuboSample* best_shot_sample = nullptr;
    for (const QuboSample& replica : replicas) {
      const double energy = model.Evaluate(replica);
      if (best_shot_sample == nullptr || energy < best_shot_energy) {
        best_shot_energy = energy;
        best_shot_sample = &replica;
      }
    }
    anneal_internal::RecordSample(model, *best_shot_sample,
                                  result.modeled_micros, &result, &heartbeat,
                                  &options_.hooks);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  anneal_internal::FlushSweepCounters("anneal.sqa", "shots", result,
                                      static_cast<std::int64_t>(n) * P,
                                      flips_accepted);
  return result;
}

}  // namespace qplex
