#include "circuit/layers.hpp"

#include <algorithm>

namespace qaoa::circuit {

std::vector<int>
gateLayers(const Circuit &circuit)
{
    // Earliest free layer per qubit; `opened` is one past the deepest
    // layer so far, where a barrier moves every qubit.
    std::vector<int> ready(static_cast<std::size_t>(circuit.numQubits()), 0);
    std::vector<int> layers;
    layers.reserve(circuit.gates().size());
    int opened = 0;
    for (const Gate &g : circuit.gates()) {
        if (g.type == GateType::BARRIER) {
            std::fill(ready.begin(), ready.end(), opened);
            layers.push_back(opened);
            continue;
        }
        const auto q0 = static_cast<std::size_t>(g.q0);
        int slot = ready[q0];
        if (g.arity() == 2)
            slot = std::max(slot, ready[static_cast<std::size_t>(g.q1)]);
        layers.push_back(slot);
        ready[q0] = slot + 1;
        if (g.arity() == 2)
            ready[static_cast<std::size_t>(g.q1)] = slot + 1;
        opened = std::max(opened, slot + 1);
    }
    return layers;
}

std::vector<std::vector<std::size_t>>
asapLayers(const Circuit &circuit)
{
    const std::vector<int> layer = gateLayers(circuit);
    std::vector<std::vector<std::size_t>> layers;
    for (std::size_t gi = 0; gi < layer.size(); ++gi) {
        if (circuit.gates()[gi].type == GateType::BARRIER)
            continue;
        const auto slot = static_cast<std::size_t>(layer[gi]);
        if (slot >= layers.size())
            layers.resize(slot + 1);
        layers[slot].push_back(gi);
    }
    return layers;
}

int
layerCount(const Circuit &circuit)
{
    return circuit.depth();
}

Circuit
withLayerBarriers(const Circuit &circuit)
{
    Circuit out(circuit.numQubits());
    const auto layers = asapLayers(circuit);
    for (std::size_t li = 0; li < layers.size(); ++li) {
        if (li > 0)
            out.add(Gate::barrier());
        for (std::size_t gi : layers[li])
            out.add(circuit.gates()[gi]);
    }
    return out;
}

} // namespace qaoa::circuit
