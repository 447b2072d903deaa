/**
 * @file
 * ASAP layer partitioning.
 *
 * Conventional routers (§III, SWAP Insertion) partition the circuit into
 * layers of concurrently executable gates — gates in one layer touch
 * disjoint qubit sets.  This is also how we measure "number of layers" in
 * the IP/IC discussions.
 */

#ifndef QAOA_CIRCUIT_LAYERS_HPP
#define QAOA_CIRCUIT_LAYERS_HPP

#include <vector>

#include "circuit/circuit.hpp"

namespace qaoa::circuit {

/**
 * ASAP (as-soon-as-possible) layer of every gate — the one schedule
 * behind Circuit::depth(), asapLayers(), the analysis CircuitDag and the
 * verifier's diagnostic locations.
 *
 * Each gate is placed in the earliest layer after the layers of all gates
 * it depends on (shares a qubit with).  A BARRIER advances every qubit to
 * the next free layer, occupies no layer itself, and is reported at the
 * layer it opens (the first layer after everything before it).
 *
 * @return One layer per entry of circuit.gates().
 */
std::vector<int> gateLayers(const Circuit &circuit);

/**
 * Greedy ASAP layering: gateLayers() grouped by layer, BARRIERs left out.
 *
 * @return Layers in time order; each layer holds indices into
 *         circuit.gates().
 */
std::vector<std::vector<std::size_t>> asapLayers(const Circuit &circuit);

/** Number of ASAP layers (equals asapLayers(c).size() and c.depth()). */
int layerCount(const Circuit &circuit);

/**
 * Rebuilds the circuit as its ASAP layers separated by BARRIERs.
 *
 * This reproduces the execution model of conventional layer-partitioning
 * backends (§III "SWAP Insertion", qiskit/Zulehner-style): the router
 * must satisfy one layer completely before starting the next, so the
 * *order* of commuting gates — the knob IP and IC turn — directly
 * controls layer count, SWAP pressure and depth.  Semantics are
 * unchanged (barriers are scheduling-only).
 */
Circuit withLayerBarriers(const Circuit &circuit);

} // namespace qaoa::circuit

#endif // QAOA_CIRCUIT_LAYERS_HPP
