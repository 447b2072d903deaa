#include "analysis/dag.hpp"

#include <algorithm>

#include "circuit/layers.hpp"
#include "common/error.hpp"

namespace qaoa::analysis {

CircuitDag::CircuitDag(const circuit::Circuit &circuit)
    : circuit_(&circuit)
{
    const auto &gates = circuit.gates();
    const std::size_t n_gates = gates.size();
    const std::size_t n_qubits =
        static_cast<std::size_t>(circuit.numQubits());

    preds_.assign(n_gates, {});
    succs_.assign(n_gates, {});
    qubit_gates_.assign(n_qubits, {});
    chain_pos_.assign(n_gates, {-1, -1});
    layer_ = circuit::gateLayers(circuit);

    // last_event[q]: most recent gate (BARRIERs included) touching q —
    // drives the dependency edges.
    std::vector<int> last_event(n_qubits, -1);

    auto link = [&](int from, int to) {
        auto &s = succs_[static_cast<std::size_t>(from)];
        if (s.empty() || s.back() != to)
            s.push_back(to);
        auto &p = preds_[static_cast<std::size_t>(to)];
        if (p.empty() || p.back() != from)
            p.push_back(from);
    };

    for (std::size_t gi = 0; gi < n_gates; ++gi) {
        const circuit::Gate &g = gates[gi];
        const int i = static_cast<int>(gi);
        if (g.type == circuit::GateType::BARRIER) {
            layer_[gi] = -1;
            for (std::size_t q = 0; q < n_qubits; ++q) {
                if (last_event[q] >= 0)
                    link(last_event[q], i);
                last_event[q] = i;
            }
            continue;
        }
        const int q0 = g.q0;
        const int q1 = g.arity() == 2 ? g.q1 : -1;
        for (int q : {q0, q1}) {
            if (q < 0)
                continue;
            auto qi = static_cast<std::size_t>(q);
            if (last_event[qi] >= 0 && last_event[qi] != i)
                link(last_event[qi], i);
            last_event[qi] = i;
            chain_pos_[gi][q == q0 ? 0 : 1] =
                static_cast<int>(qubit_gates_[qi].size());
            qubit_gates_[qi].push_back(i);
        }
        layer_count_ = std::max(layer_count_, layer_[gi] + 1);
    }
}

int
CircuitDag::nextOnQubit(int gi, int q) const
{
    const circuit::Gate &g =
        circuit_->gates()[static_cast<std::size_t>(gi)];
    QAOA_ASSERT(g.actsOn(q), "gate does not act on the queried qubit");
    const int side = q == g.q0 ? 0 : 1;
    const int pos = chain_pos_[static_cast<std::size_t>(gi)]
                              [static_cast<std::size_t>(side)];
    const auto &chain = qubit_gates_[static_cast<std::size_t>(q)];
    const std::size_t next = static_cast<std::size_t>(pos) + 1;
    return next < chain.size() ? chain[next] : -1;
}

int
CircuitDag::prevOnQubit(int gi, int q) const
{
    const circuit::Gate &g =
        circuit_->gates()[static_cast<std::size_t>(gi)];
    QAOA_ASSERT(g.actsOn(q), "gate does not act on the queried qubit");
    const int side = q == g.q0 ? 0 : 1;
    const int pos = chain_pos_[static_cast<std::size_t>(gi)]
                              [static_cast<std::size_t>(side)];
    const auto &chain = qubit_gates_[static_cast<std::size_t>(q)];
    return pos > 0 ? chain[static_cast<std::size_t>(pos) - 1] : -1;
}

} // namespace qaoa::analysis
