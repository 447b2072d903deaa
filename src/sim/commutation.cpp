#include "sim/commutation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace qaoa::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

namespace {

/** Z-basis diagonal gates: mutually commuting by construction. */
bool
isDiagonal(GateType t)
{
    switch (t) {
      case GateType::Z:
      case GateType::RZ:
      case GateType::U1:
      case GateType::CZ:
      case GateType::CPHASE:
        return true;
      default:
        return false;
    }
}

/** Qubits a gate touches (empty marker for BARRIER handled upstream). */
std::vector<int>
operands(const Gate &g)
{
    if (g.arity() == 2)
        return {g.q0, g.q1};
    return {g.q0};
}

bool
shareQubit(const Gate &a, const Gate &b)
{
    for (int qa : operands(a))
        for (int qb : operands(b))
            if (qa == qb)
                return true;
    return false;
}

/**
 * Numeric commutation test on the joint (<= 3 qubit) register: compares
 * U_a U_b |psi> with U_b U_a |psi> for a few pseudo-random states.
 */
bool
numericallyCommute(const Gate &a, const Gate &b)
{
    // Map global qubits to a compact local register.
    std::vector<int> qubits = operands(a);
    for (int q : operands(b))
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end())
            qubits.push_back(q);
    auto local = [&](int q) {
        return static_cast<int>(
            std::find(qubits.begin(), qubits.end(), q) - qubits.begin());
    };
    auto relabel = [&](const Gate &g) {
        Gate out = g;
        out.q0 = local(g.q0);
        if (g.arity() == 2)
            out.q1 = local(g.q1);
        return out;
    };
    Gate la = relabel(a), lb = relabel(b);
    const int n = static_cast<int>(qubits.size());

    Rng rng(0xC0117E57ULL);
    for (int trial = 0; trial < 3; ++trial) {
        // Pseudo-random product state + entangler.
        Statevector ab(n), ba(n);
        std::vector<Gate> prep;
        for (int q = 0; q < n; ++q)
            prep.push_back(Gate::u3(q, rng.uniformReal(0.0, 3.0),
                                    rng.uniformReal(0.0, 6.0),
                                    rng.uniformReal(0.0, 6.0)));
        for (int q = 0; q + 1 < n; ++q)
            prep.push_back(Gate::cnot(q, q + 1));
        for (const Gate &p : prep) {
            ab.apply(p);
            ba.apply(p);
        }
        ab.apply(la);
        ab.apply(lb);
        ba.apply(lb);
        ba.apply(la);
        // Exact state comparison (not just up to phase): [A, B] = 0
        // means the full operators match.
        for (std::uint64_t i = 0; i < (1ULL << n); ++i)
            if (std::abs(ab.amplitude(i) - ba.amplitude(i)) > 1e-9)
                return false;
    }
    return true;
}

} // namespace

bool
gatesCommute(const Gate &a, const Gate &b)
{
    // Scheduling primitives pin their position.
    if (a.type == GateType::BARRIER || b.type == GateType::BARRIER)
        return false;
    if (a.type == GateType::MEASURE || b.type == GateType::MEASURE)
        return !shareQubit(a, b);
    if (!shareQubit(a, b))
        return true;
    if (isDiagonal(a.type) && isDiagonal(b.type))
        return true;
    return numericallyCommute(a, b);
}

std::vector<std::vector<std::size_t>>
commutationAwareLayers(const Circuit &circuit)
{
    std::vector<std::vector<std::size_t>> layers;
    const auto &gates = circuit.gates();

    auto qubits_free_in = [&](const Gate &g, std::size_t layer) {
        for (std::size_t gi : layers[layer])
            if (shareQubit(g, gates[gi]) ||
                gates[gi].type == GateType::BARRIER ||
                g.type == GateType::BARRIER)
                return false;
        return true;
    };
    auto commutes_with_layer = [&](const Gate &g, std::size_t layer) {
        for (std::size_t gi : layers[layer])
            if (!gatesCommute(g, gates[gi]))
                return false;
        return true;
    };

    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        // Scan backwards from the end: the gate can sit in the earliest
        // layer whose qubits are free, provided it commutes with every
        // already-placed gate it would jump over (layers at or after its
        // slot).
        std::size_t slot = layers.size();
        for (std::size_t l = layers.size(); l-- > 0;) {
            if (!commutes_with_layer(g, l)) {
                // Cannot jump over layer l: earliest legal slot is l+1
                // (if its qubits are free there) — handled below.
                break;
            }
            if (qubits_free_in(g, l))
                slot = l;
        }
        if (slot == layers.size())
            layers.emplace_back();
        layers[slot].push_back(gi);
    }
    return layers;
}

int
commutationAwareLayerCount(const Circuit &circuit)
{
    return static_cast<int>(commutationAwareLayers(circuit).size());
}

} // namespace qaoa::sim
