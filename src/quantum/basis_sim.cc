#include "quantum/basis_sim.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

namespace qplex {
namespace {

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Lane l of a block of 64 consecutive masks holds mask base + l, so input
/// wire v < 6 carries bit v of the lane index in every block.
constexpr std::array<std::uint64_t, 6> kLaneIndexBits = {
    0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
};

}  // namespace

BitString BasisStateSimulator::Lane(int lane) const {
  QPLEX_CHECK(lane >= 0 && lane < kLanes) << "lane " << lane;
  BitString bits(num_qubits());
  for (int q = 0; q < num_qubits(); ++q) {
    bits.Set(q, (wires_[static_cast<std::size_t>(q)] >> lane) & 1);
  }
  return bits;
}

void BasisStateSimulator::SetLane(int lane, const BitString& bits) {
  QPLEX_CHECK(lane >= 0 && lane < kLanes) << "lane " << lane;
  QPLEX_CHECK(bits.size() <= num_qubits())
      << bits.size() << " bits into " << num_qubits() << " wires";
  const std::uint64_t lane_bit = std::uint64_t{1} << lane;
  for (int q = 0; q < bits.size(); ++q) {
    std::uint64_t& word = wires_[static_cast<std::size_t>(q)];
    word = bits.Get(q) ? (word | lane_bit) : (word & ~lane_bit);
  }
}

void BasisStateSimulator::Reset() {
  std::fill(wires_.begin(), wires_.end(), 0);
  phase_ = 0;
}

Status BasisStateSimulator::Run(const Circuit& circuit) {
  QPLEX_CHECK(num_qubits() >= circuit.num_qubits())
      << "simulator narrower than circuit";
  // Circuit::Append keeps every wire below circuit.num_qubits(), so the
  // width check above bounds every index below.
  std::uint64_t* const w = wires_.data();
  std::uint64_t phase = phase_;
  for (const Gate& gate : circuit.gates()) {
    std::uint64_t fire = kAllLanes;
    for (const Control& control : gate.controls) {
      fire &= w[control.qubit] ^ (control.positive ? 0 : kAllLanes);
    }
    switch (gate.kind) {
      case GateKind::kX:
        w[gate.target] ^= fire;
        break;
      case GateKind::kZ:
        // Z contributes a -1 phase where the target is |1> and controls fire.
        phase ^= fire & w[gate.target];
        break;
      case GateKind::kH:
        phase_ = phase;
        return Status::FailedPrecondition(
            "H gate leaves the computational basis; use StateVectorSimulator");
    }
  }
  phase_ = phase;
  return Status::Ok();
}

Result<BitString> BasisStateSimulator::Execute(const Circuit& circuit,
                                               const BitString& input) {
  if (input.size() > circuit.num_qubits()) {
    return Status::InvalidArgument("input wider than circuit");
  }
  BasisStateSimulator sim(circuit.num_qubits());
  sim.SetLane(0, input);
  QPLEX_RETURN_IF_ERROR(sim.Run(circuit));
  return sim.Lane(0);
}

Result<std::uint64_t> RunOracleLanes(const Circuit& circuit, int output_wire,
                                     std::span<const std::uint64_t> inputs,
                                     BasisStateSimulator* sim) {
  QPLEX_CHECK(inputs.size() <= static_cast<std::size_t>(circuit.num_qubits()) &&
              output_wire >= 0 && output_wire < circuit.num_qubits())
      << inputs.size() << " inputs, output wire " << output_wire << " of "
      << circuit.num_qubits();
  sim->Reset();
  const std::span<std::uint64_t> w = sim->wires();
  std::copy(inputs.begin(), inputs.end(), w.begin());
  QPLEX_RETURN_IF_ERROR(sim->Run(circuit));
  // The contract's expected word for wire q: its input, or |0> for ancillas.
  const auto changed = [&](std::size_t q) -> std::uint64_t {
    if (q == static_cast<std::size_t>(output_wire)) {
      return 0;
    }
    return w[q] ^ (q < inputs.size() ? inputs[q] : 0);
  };
  // One OR over every word keeps the per-pass check branch-free; the wire to
  // report is looked up only once the contract is known to be broken.
  const std::size_t width = static_cast<std::size_t>(circuit.num_qubits());
  std::uint64_t broken_lanes = 0;
  for (std::size_t q = 0; q < width; ++q) {
    broken_lanes |= changed(q);
  }
  if (broken_lanes != 0) {
    std::size_t q = 0;
    while (changed(q) == 0) {
      ++q;
    }
    return Status::Internal("wire " + std::to_string(q) +
                            " not restored by uncompute");
  }
  return w[static_cast<std::size_t>(output_wire)];
}

Result<bool> EvaluateOracle(const Circuit& circuit, int num_inputs,
                            int output_wire, std::uint64_t mask) {
  QPLEX_CHECK(num_inputs >= 0 && num_inputs <= 64)
      << num_inputs << " oracle inputs";
  std::array<std::uint64_t, 64> inputs{};
  for (int v = 0; v < num_inputs; ++v) {
    inputs[static_cast<std::size_t>(v)] = (mask >> v) & 1;
  }
  BasisStateSimulator sim(circuit.num_qubits());
  const std::span<const std::uint64_t> lane0(
      inputs.data(), static_cast<std::size_t>(num_inputs));
  QPLEX_ASSIGN_OR_RETURN(const std::uint64_t lanes,
                         RunOracleLanes(circuit, output_wire, lane0, &sim));
  return (lanes & 1) != 0;
}

std::vector<std::uint64_t> MarkedInputs(const Circuit& circuit, int num_inputs,
                                        int output_wire) {
  QPLEX_CHECK(num_inputs >= 0 && num_inputs <= 30)
      << "exhaustive evaluation needs n <= 30";
  const std::uint64_t space = std::uint64_t{1} << num_inputs;
  // For fewer than 64 masks the lanes past the last one are not inputs.
  const std::uint64_t live_lanes =
      space >= 64 ? kAllLanes : (std::uint64_t{1} << space) - 1;
  BasisStateSimulator sim(circuit.num_qubits());
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(num_inputs));
  std::vector<std::uint64_t> marked;
  for (std::uint64_t base = 0; base < space; base += 64) {
    for (int v = 0; v < num_inputs; ++v) {
      inputs[static_cast<std::size_t>(v)] =
          v < 6 ? kLaneIndexBits[static_cast<std::size_t>(v)]
                : ((base >> v) & 1 ? kAllLanes : 0);
    }
    const Result<std::uint64_t> hits =
        RunOracleLanes(circuit, output_wire, inputs, &sim);
    QPLEX_CHECK(hits.ok()) << hits.status().ToString();
    for (std::uint64_t lanes = hits.value() & live_lanes; lanes != 0;
         lanes &= lanes - 1) {
      marked.push_back(base +
                       static_cast<std::uint64_t>(std::countr_zero(lanes)));
    }
  }
  return marked;
}

}  // namespace qplex
