#include "quantum/statevector.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "resilience/fault_injection.h"

namespace qplex {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

constexpr std::uint64_t kDefaultMaxSimulationBytes = std::uint64_t{4} << 30;

std::atomic<std::uint64_t>& SimulationBudget() {
  static std::atomic<std::uint64_t> budget{kDefaultMaxSimulationBytes};
  return budget;
}

/// Per-gate control predicate, folded to one mask compare per basis state:
/// the gate fires on `basis` iff (basis & mask) == value. Computed once per
/// ApplyGate instead of walking the control list for each of the 2^n states.
struct ControlMask {
  std::uint64_t mask = 0;
  std::uint64_t value = 0;
  /// Contradictory controls (the same wire required both |0> and |1>): the
  /// gate can never fire on any basis state.
  bool never_fires = false;

  bool Fires(std::uint64_t basis) const { return (basis & mask) == value; }
};

ControlMask MakeControlMask(const Gate& gate, int num_qubits) {
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
  for (const Control& wire : gate.controls) {
    QPLEX_CHECK(wire.qubit >= 0 && wire.qubit < num_qubits)
        << "control " << wire.qubit << " outside register";
    const std::uint64_t bit = std::uint64_t{1} << wire.qubit;
    (wire.positive ? positive : negative) |= bit;
  }
  ControlMask control;
  control.mask = positive | negative;
  control.value = positive;
  control.never_fires = (positive & negative) != 0;
  return control;
}

/// Expands a pair index j in [0, 2^(n-1)) to the basis index with the target
/// bit cleared: the bits of j below the target stay in place, the rest shift
/// up by one. Iterating j enumerates each (i, i | target_bit) pair exactly
/// once, which keeps parallel chunks over j write-disjoint.
inline std::uint64_t PairToBasis(std::uint64_t j, std::uint64_t low_mask) {
  return ((j & ~low_mask) << 1) | (j & low_mask);
}

}  // namespace

std::uint64_t MaxSimulationBytes() {
  return SimulationBudget().load(std::memory_order_relaxed);
}

void SetMaxSimulationBytes(std::uint64_t bytes) {
  SimulationBudget().store(bytes == 0 ? kDefaultMaxSimulationBytes : bytes,
                           std::memory_order_relaxed);
}

std::uint64_t SimulationBytes(int num_qubits) {
  QPLEX_CHECK(num_qubits >= 0 && num_qubits < 60)
      << "qubit count out of range: " << num_qubits;
  return (std::uint64_t{1} << num_qubits) *
         sizeof(std::complex<double>);
}

Status CheckSimulationBudget(int num_qubits) {
  if (resilience::FaultFires(resilience::FaultSite::kAlloc)) {
    return Status::ResourceExhausted(
        "injected fault: alloc (statevector budget check, n=" +
        std::to_string(num_qubits) + ")");
  }
  const std::uint64_t need = SimulationBytes(num_qubits);
  const std::uint64_t budget = MaxSimulationBytes();
  if (need > budget) {
    return Status::ResourceExhausted(
        "state-vector register of " + std::to_string(num_qubits) +
        " qubits needs " + std::to_string(need) +
        " bytes of amplitudes, over the " + std::to_string(budget) +
        "-byte simulation budget");
  }
  return Status::Ok();
}

StateVectorSimulator::StateVectorSimulator(int num_qubits, int num_threads)
    : num_qubits_(num_qubits) {
  QPLEX_CHECK(num_qubits >= 1 && num_qubits <= kMaxQubits)
      << "state-vector simulation supports 1.." << kMaxQubits
      << " qubits, got " << num_qubits;
  set_num_threads(num_threads);
  amplitudes_.assign(dimension(), {0.0, 0.0});
  amplitudes_[0] = {1.0, 0.0};
}

void StateVectorSimulator::set_num_threads(int num_threads) {
  QPLEX_CHECK(num_threads >= 1) << "num_threads must be >= 1";
  num_threads_ = num_threads;
  obs::MetricsRegistry::Global()
      .GetGauge("simulator.threads")
      .Set(static_cast<double>(num_threads_));
}

void StateVectorSimulator::Reset() {
  std::fill(amplitudes_.begin(), amplitudes_.end(),
            std::complex<double>{0.0, 0.0});
  amplitudes_[0] = {1.0, 0.0};
}

void StateVectorSimulator::PrepareUniform() {
  const double amp = 1.0 / std::sqrt(static_cast<double>(dimension()));
  ParallelFor(num_threads_, dimension(),
              [&](std::uint64_t begin, std::uint64_t end) {
                std::fill(amplitudes_.begin() + static_cast<std::ptrdiff_t>(
                                                    begin),
                          amplitudes_.begin() + static_cast<std::ptrdiff_t>(
                                                    end),
                          std::complex<double>{amp, 0.0});
              });
}

void StateVectorSimulator::ApplyX(int qubit) { ApplyGate(MakeX(qubit)); }
void StateVectorSimulator::ApplyH(int qubit) { ApplyGate(MakeH(qubit)); }
void StateVectorSimulator::ApplyZ(int qubit) { ApplyGate(MakeZ(qubit)); }

void StateVectorSimulator::ApplyGate(const Gate& gate) {
  QPLEX_CHECK(gate.target >= 0 && gate.target < num_qubits_)
      << "target " << gate.target << " outside register";
  const ControlMask control = MakeControlMask(gate, num_qubits_);
  const std::uint64_t target_bit = std::uint64_t{1} << gate.target;
  const std::uint64_t low_mask = target_bit - 1;
  const std::uint64_t dim = dimension();
  auto& registry = obs::MetricsRegistry::Global();
  // References stay valid across Reset(), so one lookup per process is safe.
  static obs::Counter& x_applies =
      registry.GetCounter("simulator.gate_applies.x");
  static obs::Counter& z_applies =
      registry.GetCounter("simulator.gate_applies.z");
  static obs::Counter& h_applies =
      registry.GetCounter("simulator.gate_applies.h");
  switch (gate.kind) {
    case GateKind::kX:
      x_applies.Increment();
      if (control.never_fires) {
        break;
      }
      // Pair loop: j enumerates the (i, i | target_bit) pairs, i has the
      // target bit clear, so the old per-pair swap semantics are preserved
      // and chunks never touch each other's amplitudes.
      ParallelFor(num_threads_, dim >> 1,
                  [&](std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t j = begin; j < end; ++j) {
                      const std::uint64_t i = PairToBasis(j, low_mask);
                      if (control.Fires(i)) {
                        std::swap(amplitudes_[i], amplitudes_[i | target_bit]);
                      }
                    }
                  });
      break;
    case GateKind::kZ: {
      z_applies.Increment();
      // Z flips the phase where the target bit is set AND the controls fire:
      // one fused mask compare per basis state. (A control on the target
      // wire matches BasisStateSimulator: a positive control is subsumed by
      // the target-bit requirement, a negative one never fires.)
      const std::uint64_t full_mask = control.mask | target_bit;
      const std::uint64_t full_value = control.value | target_bit;
      const bool negative_control_on_target =
          (control.mask & target_bit) != 0 && (control.value & target_bit) == 0;
      if (control.never_fires || negative_control_on_target) {
        break;
      }
      ParallelFor(num_threads_, dim,
                  [&](std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t i = begin; i < end; ++i) {
                      if ((i & full_mask) == full_value) {
                        amplitudes_[i] = -amplitudes_[i];
                      }
                    }
                  });
      break;
    }
    case GateKind::kH:
      h_applies.Increment();
      if (control.never_fires) {
        break;
      }
      ParallelFor(num_threads_, dim >> 1,
                  [&](std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t j = begin; j < end; ++j) {
                      const std::uint64_t i = PairToBasis(j, low_mask);
                      if (control.Fires(i)) {
                        const std::complex<double> a = amplitudes_[i];
                        const std::complex<double> b =
                            amplitudes_[i | target_bit];
                        amplitudes_[i] = (a + b) * kInvSqrt2;
                        amplitudes_[i | target_bit] = (a - b) * kInvSqrt2;
                      }
                    }
                  });
      break;
  }
}

void StateVectorSimulator::RunCircuit(const Circuit& circuit) {
  QPLEX_CHECK(circuit.num_qubits() <= num_qubits_)
      << "circuit wider than simulator";
  for (const Gate& gate : circuit.gates()) {
    ApplyGate(gate);
  }
}

void StateVectorSimulator::ApplyPhaseOracle(
    const std::function<bool(std::uint64_t)>& marked) {
  static obs::Counter& applies = obs::MetricsRegistry::Global().GetCounter(
      "simulator.phase_oracle_applies");
  applies.Increment();
  ParallelFor(num_threads_, dimension(),
              [&](std::uint64_t begin, std::uint64_t end) {
                for (std::uint64_t i = begin; i < end; ++i) {
                  if (marked(i)) {
                    amplitudes_[i] = -amplitudes_[i];
                  }
                }
              });
}

void StateVectorSimulator::ApplyPhaseOracle(
    const std::vector<std::uint64_t>& marked_states) {
  static obs::Counter& applies = obs::MetricsRegistry::Global().GetCounter(
      "simulator.phase_oracle_applies");
  applies.Increment();
  // O(M) sparse flips: threading would cost more than it saves.
  for (std::uint64_t basis : marked_states) {
    QPLEX_CHECK(basis < dimension()) << "marked state out of range";
    amplitudes_[basis] = -amplitudes_[basis];
  }
}

void StateVectorSimulator::ApplyDiffusion() {
  static obs::Counter& applies = obs::MetricsRegistry::Global().GetCounter(
      "simulator.diffusion_applies");
  applies.Increment();
  const std::complex<double> sum = ParallelReduce(
      num_threads_, dimension(), std::complex<double>{0.0, 0.0},
      [&](std::uint64_t begin, std::uint64_t end) {
        std::complex<double> partial{0.0, 0.0};
        for (std::uint64_t i = begin; i < end; ++i) {
          partial += amplitudes_[i];
        }
        return partial;
      },
      [](std::complex<double> a, std::complex<double> b) { return a + b; });
  const std::complex<double> twice_mean =
      sum * (2.0 / static_cast<double>(dimension()));
  ParallelFor(num_threads_, dimension(),
              [&](std::uint64_t begin, std::uint64_t end) {
                for (std::uint64_t i = begin; i < end; ++i) {
                  amplitudes_[i] = twice_mean - amplitudes_[i];
                }
              });
}

double StateVectorSimulator::Probability(std::uint64_t basis) const {
  QPLEX_CHECK(basis < dimension()) << "basis index out of range";
  return std::norm(amplitudes_[basis]);
}

std::vector<double> StateVectorSimulator::Probabilities() const {
  std::vector<double> probabilities(dimension());
  ParallelFor(num_threads_, dimension(),
              [&](std::uint64_t begin, std::uint64_t end) {
                for (std::uint64_t i = begin; i < end; ++i) {
                  probabilities[i] = std::norm(amplitudes_[i]);
                }
              });
  return probabilities;
}

double StateVectorSimulator::SuccessProbability(
    const std::function<bool(std::uint64_t)>& predicate) const {
  return ParallelReduce(
      num_threads_, dimension(), 0.0,
      [&](std::uint64_t begin, std::uint64_t end) {
        double partial = 0.0;
        for (std::uint64_t i = begin; i < end; ++i) {
          if (predicate(i)) {
            partial += std::norm(amplitudes_[i]);
          }
        }
        return partial;
      },
      [](double a, double b) { return a + b; });
}

double StateVectorSimulator::TotalProbability() const {
  return ParallelReduce(
      num_threads_, dimension(), 0.0,
      [&](std::uint64_t begin, std::uint64_t end) {
        double partial = 0.0;
        for (std::uint64_t i = begin; i < end; ++i) {
          partial += std::norm(amplitudes_[i]);
        }
        return partial;
      },
      [](double a, double b) { return a + b; });
}

std::vector<double> StateVectorSimulator::BuildCdf() const {
  const std::uint64_t dim = dimension();
  std::vector<double> cdf(dim);
  const std::uint64_t num_chunks = NumParallelChunks(dim);
  std::vector<double> chunk_totals(num_chunks, 0.0);
  // Pass 1: prefix sums local to each fixed chunk, plus the chunk totals.
  ParallelFor(num_threads_, dim, [&](std::uint64_t begin, std::uint64_t end) {
    double accumulator = 0.0;
    for (std::uint64_t i = begin; i < end; ++i) {
      accumulator += std::norm(amplitudes_[i]);
      cdf[i] = accumulator;
    }
    chunk_totals[begin / kParallelChunkSize] = accumulator;
  });
  // Exclusive scan of the chunk totals, in chunk order (deterministic).
  std::vector<double> chunk_offsets(num_chunks, 0.0);
  double running = 0.0;
  for (std::uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    chunk_offsets[chunk] = running;
    running += chunk_totals[chunk];
  }
  // Pass 2: shift each chunk by the mass before it. Chunk 0's offset is
  // exactly 0.0, so a single-chunk CDF is bit-identical to a serial scan.
  ParallelFor(num_threads_, dim, [&](std::uint64_t begin, std::uint64_t end) {
    const double offset = chunk_offsets[begin / kParallelChunkSize];
    for (std::uint64_t i = begin; i < end; ++i) {
      cdf[i] += offset;
    }
  });
  return cdf;
}

namespace {

/// Maps a uniform draw u in [0, total) to the first basis index whose
/// cumulative probability reaches u (binary search, O(n) comparisons).
std::uint64_t SampleIndexFromCdf(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end()
             ? static_cast<std::uint64_t>(cdf.size()) - 1
             : static_cast<std::uint64_t>(it - cdf.begin());
}

}  // namespace

std::uint64_t StateVectorSimulator::SampleOne(Rng& rng) const {
  const std::vector<double> cdf = BuildCdf();
  const double u = rng.UniformDouble() * cdf.back();
  return SampleIndexFromCdf(cdf, u);
}

std::vector<int> StateVectorSimulator::Sample(Rng& rng, int shots) const {
  QPLEX_CHECK(shots >= 0) << "negative shot count";
  // Build the CDF once; each shot is then a binary search.
  const std::vector<double> cdf = BuildCdf();
  const double total = cdf.back();
  std::vector<int> counts(dimension(), 0);
  for (int s = 0; s < shots; ++s) {
    const double u = rng.UniformDouble() * total;
    ++counts[SampleIndexFromCdf(cdf, u)];
  }
  return counts;
}

}  // namespace qplex
