#include "anneal/annealer.h"

#include <cmath>

#include "obs/metrics.h"

namespace qplex {
namespace anneal_internal {

void RecordSample(const QuboModel& model, const QuboSample& sample,
                  double budget_micros, AnnealResult* result,
                  obs::ProgressHeartbeat* heartbeat, const AnnealHooks* hooks) {
  const double energy = model.Evaluate(sample);
  if (result->best_sample.empty() || energy < result->best_energy) {
    result->best_energy = energy;
    result->best_sample = sample;
    if (hooks != nullptr && hooks->on_new_best) {
      hooks->on_new_best(sample, energy, result->sweeps);
    }
  }
  result->trace.push_back(CostTracePoint{budget_micros, result->best_energy});
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("anneal.samples").Increment();
  if (heartbeat != nullptr && heartbeat->Due()) {
    heartbeat->Emit({{"best_energy", result->best_energy},
                     {"shots", result->shots},
                     {"sweeps", result->sweeps},
                     {"modeled_micros", result->modeled_micros}});
  }
}

QuboSample RandomSample(int num_variables, Rng& rng) {
  QuboSample sample(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    sample[i] = static_cast<std::uint8_t>(rng.Next() & 1);
  }
  return sample;
}

namespace {

int Spin(std::uint8_t bit) { return bit ? 1 : -1; }

}  // namespace

std::int64_t MetropolisSweep(const QuboModel& model, double beta, Rng& rng,
                             QuboSample* sample, double* energy,
                             const TrotterCoupling* trotter) {
  QuboSample& x = *sample;
  std::int64_t accepted = 0;
  for (int i = 0; i < model.num_variables(); ++i) {
    double delta = model.FlipDelta(x, i);
    if (trotter != nullptr) {
      delta = delta / trotter->slices +
              2.0 * trotter->j_perp * Spin(x[i]) *
                  (Spin((*trotter->prev)[i]) + Spin((*trotter->next)[i]));
    }
    if (delta <= 0 || rng.UniformDouble() < std::exp(-beta * delta)) {
      x[i] ^= 1;
      if (energy != nullptr) {
        *energy += delta;
      }
      ++accepted;
    }
  }
  return accepted;
}

std::vector<double> GeometricLadder(double first, double last, int count) {
  std::vector<double> ladder(count);
  const double ratio =
      count == 1 ? 1.0 : std::pow(last / first, 1.0 / (count - 1));
  double beta = first;
  for (double& rung : ladder) {
    rung = beta;
    beta *= ratio;
  }
  return ladder;
}

void FlushSweepCounters(const std::string& prefix, const char* shots_name,
                        const AnnealResult& result,
                        std::int64_t moves_per_sweep,
                        std::int64_t moves_accepted) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(prefix + ".runs").Increment();
  registry.GetCounter(prefix + "." + shots_name).Add(result.shots);
  registry.GetCounter(prefix + ".sweeps").Add(result.sweeps);
  registry.GetCounter(prefix + ".moves_proposed")
      .Add(result.sweeps * moves_per_sweep);
  registry.GetCounter(prefix + ".moves_accepted").Add(moves_accepted);
  registry.GetGauge(prefix + ".best_energy").SetMin(result.best_energy);
}

}  // namespace anneal_internal
}  // namespace qplex
