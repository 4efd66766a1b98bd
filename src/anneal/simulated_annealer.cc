#include "anneal/simulated_annealer.h"

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/trace.h"

namespace qplex {

Result<AnnealResult> SimulatedAnnealer::Run(const QuboModel& model) const {
  if (options_.shots < 1 || options_.sweeps_per_shot < 1) {
    return Status::InvalidArgument("shots and sweeps must be positive");
  }
  if (options_.beta_final < SimulatedAnnealerOptions::kBetaInitial) {
    return Status::InvalidArgument("need beta_final >= the initial beta");
  }
  obs::TraceSpan span("anneal.sa");
  obs::ProgressHeartbeat heartbeat("anneal.sa");
  const int n = model.num_variables();
  const Deadline deadline = Deadline::After(options_.time_limit_seconds);
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t moves_accepted = 0;  // flushed to the registry once at the end

  // Geometric beta ladder shared by every shot.
  const std::vector<double> betas = anneal_internal::GeometricLadder(
      SimulatedAnnealerOptions::kBetaInitial, options_.beta_final,
      options_.sweeps_per_shot);

  for (int shot = 0; shot < options_.shots && result.completed; ++shot) {
    QuboSample sample = anneal_internal::RandomSample(n, rng);
    for (int sweep = 0; sweep < options_.sweeps_per_shot; ++sweep) {
      if (StopRequested(deadline, options_.cancel)) {
        result.completed = false;
        break;
      }
      moves_accepted +=
          anneal_internal::MetropolisSweep(model, betas[sweep], rng, &sample);
      ++result.sweeps;
    }
    ++result.shots;
    result.modeled_micros += kMicrosPerSweep * options_.sweeps_per_shot;
    anneal_internal::RecordSample(model, sample, result.modeled_micros,
                                  &result, &heartbeat, &options_.hooks);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  anneal_internal::FlushSweepCounters("anneal.sa", "shots", result, n,
                                      moves_accepted);
  return result;
}

}  // namespace qplex
