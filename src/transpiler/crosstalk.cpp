#include "transpiler/crosstalk.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qaoa::transpiler {

namespace {

Coupling
normalize(int a, int b)
{
    return {std::min(a, b), std::max(a, b)};
}

/** True when couplings @p x and @p y form a conflicting pair. */
bool
conflicts(const std::vector<CrosstalkPair> &pairs, const Coupling &x,
          const Coupling &y)
{
    for (const CrosstalkPair &p : pairs) {
        Coupling a = normalize(p.first.first, p.first.second);
        Coupling b = normalize(p.second.first, p.second.second);
        if ((x == a && y == b) || (x == b && y == a))
            return true;
    }
    return false;
}

} // namespace

int
countCrosstalkViolations(const circuit::Circuit &physical,
                         const std::vector<CrosstalkPair> &pairs)
{
    return static_cast<int>(
        analysis::findCrosstalkClashes(physical, pairs).diagnostics().size());
}

circuit::Circuit
sequentializeCrosstalk(const circuit::Circuit &physical,
                       const std::vector<CrosstalkPair> &pairs)
{
    // Greedy list scheduling with a per-layer conflict constraint: every
    // gate goes to the earliest slot where its qubits are free and its
    // coupling does not conflict with a coupling already in that slot.
    const auto &gates = physical.gates();
    std::vector<std::size_t> ready(
        static_cast<std::size_t>(physical.numQubits()), 0);
    std::vector<std::vector<std::size_t>> layers; // gate indices per slot
    std::vector<std::vector<Coupling>> layer_couplings;

    auto slot_conflicts = [&](std::size_t slot, const Coupling &c) {
        if (slot >= layer_couplings.size())
            return false;
        for (const Coupling &other : layer_couplings[slot])
            if (conflicts(pairs, c, other))
                return true;
        return false;
    };

    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const circuit::Gate &g = gates[gi];
        if (g.type == circuit::GateType::BARRIER) {
            std::size_t frontier = layers.size();
            std::fill(ready.begin(), ready.end(), frontier);
            continue;
        }
        std::size_t slot = ready[static_cast<std::size_t>(g.q0)];
        if (g.arity() == 2)
            slot = std::max(slot, ready[static_cast<std::size_t>(g.q1)]);
        if (circuit::isTwoQubit(g.type)) {
            Coupling c = normalize(g.q0, g.q1);
            while (slot_conflicts(slot, c))
                ++slot;
        }
        if (slot >= layers.size()) {
            layers.resize(slot + 1);
            layer_couplings.resize(slot + 1);
        }
        layers[slot].push_back(gi);
        if (circuit::isTwoQubit(g.type))
            layer_couplings[slot].push_back(normalize(g.q0, g.q1));
        ready[static_cast<std::size_t>(g.q0)] = slot + 1;
        if (g.arity() == 2)
            ready[static_cast<std::size_t>(g.q1)] = slot + 1;
    }

    // Emit slot by slot with barriers so the conflict-free schedule is
    // what any downstream ASAP pass reconstructs.
    circuit::Circuit out(physical.numQubits());
    for (std::size_t slot = 0; slot < layers.size(); ++slot) {
        if (slot > 0)
            out.add(circuit::Gate::barrier());
        for (std::size_t gi : layers[slot])
            out.add(gates[gi]);
    }
    QAOA_ASSERT(countCrosstalkViolations(out, pairs) == 0,
                "sequentialization left crosstalk violations");
    return out;
}

} // namespace qaoa::transpiler
