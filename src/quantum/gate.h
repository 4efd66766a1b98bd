#ifndef QPLEX_QUANTUM_GATE_H_
#define QPLEX_QUANTUM_GATE_H_

#include <string>
#include <vector>

namespace qplex {

/// A control wire of a controlled gate. `positive` controls (filled dot in
/// circuit diagrams) fire on |1>, negative controls (hollow dot) on |0>.
struct Control {
  int qubit = 0;
  bool positive = true;

  friend bool operator==(const Control& a, const Control& b) {
    return a.qubit == b.qubit && a.positive == b.positive;
  }
};

/// The base operations the qplex circuits use. X with controls subsumes
/// CNOT / Toffoli / C^kNOT; Z with controls gives the multi-controlled phase
/// flip used by the Grover diffusion operator.
enum class GateKind {
  kX,  ///< Pauli-X (classical reversible, self-inverse)
  kH,  ///< Hadamard (self-inverse)
  kZ,  ///< Pauli-Z phase flip (self-inverse)
};

const char* GateKindName(GateKind kind);

/// One gate: `kind` applied to `target`, fired only when every control
/// matches its polarity. All supported gates are involutions, so a circuit's
/// inverse is simply its gate list reversed.
struct Gate {
  GateKind kind = GateKind::kX;
  int target = 0;
  std::vector<Control> controls;
  /// Stage tag for cost accounting (index into Circuit::stage_names()).
  int stage = 0;

  /// True when the gate maps computational-basis states to computational-
  /// basis states (up to phase) — everything except H. The MKP oracle is
  /// built exclusively from classical gates, which is what lets the basis
  /// simulator execute it on basis states, 64 per pass.
  bool IsClassical() const { return kind != GateKind::kH; }

  /// A crude execution-cost proxy: 1 + number of controls. Multi-controlled
  /// gates decompose into Θ(#controls) two-qubit gates on real hardware.
  int Cost() const { return 1 + static_cast<int>(controls.size()); }

  /// "CCX(2,5 -> 9)" style rendering; negative controls are prefixed with '!'.
  std::string ToString() const;

  friend bool operator==(const Gate& a, const Gate& b) {
    return a.kind == b.kind && a.target == b.target && a.controls == b.controls;
  }
};

/// Convenience constructors.
Gate MakeX(int target);
Gate MakeH(int target);
Gate MakeZ(int target);
Gate MakeCX(int control, int target);
Gate MakeCCX(int control_a, int control_b, int target);
/// Multi-controlled X, all positive controls.
Gate MakeMCX(std::vector<int> controls, int target);
/// Multi-controlled X with explicit polarities.
Gate MakeMCX(std::vector<Control> controls, int target);
/// Multi-controlled Z, all positive controls.
Gate MakeMCZ(std::vector<int> controls, int target);

}  // namespace qplex

#endif  // QPLEX_QUANTUM_GATE_H_
