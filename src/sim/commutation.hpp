/**
 * @file
 * Gate commutation analysis.
 *
 * The paper's premise (§I) is that the CPHASE gates of a QAOA cost
 * Hamiltonian mutually commute, so their order is free.  This module
 * makes that knowledge first-class: a pairwise commutation test (rule
 * based for the common cases, numeric fallback for the rest) and a
 * commutation-aware layering that may reorder commuting gates — the
 * upper bound on what any order-exploiting pass like IP can achieve.
 * It lives in sim/ because the numeric fallback runs on the Statevector.
 */

#ifndef QAOA_SIM_COMMUTATION_HPP
#define QAOA_SIM_COMMUTATION_HPP

#include <vector>

#include "circuit/circuit.hpp"

namespace qaoa::sim {

/**
 * True when the two gates commute as operators.
 *
 * Fast paths: disjoint qubit sets always commute; diagonal gates
 * (Z, RZ, U1, CZ, CPHASE) always commute with each other — this covers
 * the QAOA cost layer.  Everything else falls back to a numeric check
 * of U_a U_b == U_b U_a on the joint register (exact up to 1e-9).
 * MEASURE and BARRIER never commute with anything sharing a qubit.
 */
bool gatesCommute(const circuit::Gate &a, const circuit::Gate &b);

/**
 * Commutation-aware ASAP layering: a gate may hop over earlier gates it
 * commutes with, landing in the earliest layer whose qubits are free.
 * For a QAOA cost layer (mutually commuting CPHASEs) this reaches layer
 * counts at or near the MOQ lower bound *regardless of input order* —
 * the reordering freedom IP exploits, exposed as a generic analysis.
 *
 * @return Layers of indices into circuit.gates(); concatenating them
 *         yields a valid, semantically equal gate order.
 */
std::vector<std::vector<std::size_t>>
commutationAwareLayers(const circuit::Circuit &circuit);

/** Number of commutation-aware layers. */
int commutationAwareLayerCount(const circuit::Circuit &circuit);

} // namespace qaoa::sim

#endif // QAOA_SIM_COMMUTATION_HPP
