#ifndef QPLEX_QUANTUM_BASIS_SIM_H_
#define QPLEX_QUANTUM_BASIS_SIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "quantum/bitstring.h"
#include "quantum/circuit.h"

namespace qplex {

/// Executes classical reversible circuits (X with arbitrary controls; Z gates
/// are phase-only and tracked separately) on 64 computational-basis states at
/// once. Each wire is one 64-bit word whose bit l is the wire's value in lane
/// l, so a gate is a handful of word operations for all 64 states:
///
///   fire = AND over controls of (w[q], or ~w[q] for a negative control)
///   X:  w[target] ^= fire        Z:  phase ^= fire & w[target]
///
/// This is how qplex runs the paper's literal oracle circuits, whose width is
/// O(n^2 log n) qubits — far beyond dense state-vector simulation but
/// trivial to run basis state by basis state, 64 states per pass. A
/// single-state run is lane 0 of the same pass.
class BasisStateSimulator {
 public:
  static constexpr int kLanes = 64;

  /// Creates a simulator over `num_qubits` wires, all |0> in every lane.
  explicit BasisStateSimulator(int num_qubits) : wires_(num_qubits, 0) {}

  int num_qubits() const { return static_cast<int>(wires_.size()); }

  /// One word per wire: bit l of wires()[q] is wire q's value in lane l.
  std::span<std::uint64_t> wires() { return wires_; }

  /// The basis state of one lane, and its replacement: wires
  /// [0, bits.size()) take `bits`, wires beyond it are left as they are.
  BitString Lane(int lane) const;
  void SetLane(int lane, const BitString& bits);

  /// Accumulated phase parity from Z-type gates, one bit per lane: lane l
  /// has amplitude (-1)^bit l. Grover oracles built as MCZ gates surface here.
  std::uint64_t phase() const { return phase_; }

  /// Returns every wire of every lane to |0> and clears the phase.
  void Reset();

  /// Runs every gate of `circuit` in order on all lanes. Returns
  /// FailedPrecondition at an H gate — a Hadamard takes a basis state out of
  /// the computational basis.
  Status Run(const Circuit& circuit);

  /// Convenience: stores `input` into wires [0, input.size()) of lane 0 (all
  /// other wires |0>), runs the circuit, and returns lane 0's final state.
  static Result<BitString> Execute(const Circuit& circuit,
                                   const BitString& input);

 private:
  std::vector<std::uint64_t> wires_;
  std::uint64_t phase_ = 0;
};

/// Runs an oracle circuit built as U, output flip, U^dagger on 64 inputs at
/// once. Input wires [0, inputs.size()) hold the lane words `inputs`; every
/// other wire starts at |0>. Returns the lanes of `output_wire`, or Internal
/// when any lane leaves another wire changed (the uncompute contract: input
/// wires keep their value, ancillas return to |0>). `sim` is scratch space at
/// least as wide as `circuit`.
Result<std::uint64_t> RunOracleLanes(const Circuit& circuit, int output_wire,
                                     std::span<const std::uint64_t> inputs,
                                     BasisStateSimulator* sim);

/// The one-lane case of RunOracleLanes: the output bit for the input whose
/// wire v holds bit v of `mask`, v < num_inputs.
Result<bool> EvaluateOracle(const Circuit& circuit, int num_inputs,
                            int output_wire, std::uint64_t mask);

/// Every input mask in [0, 2^num_inputs) whose oracle run sets
/// `output_wire`, in ascending order. Runs ceil(2^num_inputs / 64) blocks of
/// 64 consecutive masks; a broken uncompute contract in any lane fails a
/// QPLEX_CHECK. Requires num_inputs <= 30.
std::vector<std::uint64_t> MarkedInputs(const Circuit& circuit, int num_inputs,
                                        int output_wire);

}  // namespace qplex

#endif  // QPLEX_QUANTUM_BASIS_SIM_H_
