/**
 * @file
 * QAOA circuit construction.
 *
 * A QAOA cost layer is a set of mutually commuting ZZ-interactions,
 * executed as CPHASE gates (§II "QAOA-circuits"), plus optional
 * single-qubit Z fields executed as RZ rotations (§VI).  MaxCut is the
 * case with one ZZ term per problem-graph edge and no fields.  The full
 * level-p circuit is: H on every qubit, then p repetitions of (cost
 * layer with angle γ_i, mixer RX(2·β_i) on every qubit), then
 * measurement.
 */

#ifndef QAOA_QAOA_PROBLEM_HPP
#define QAOA_QAOA_PROBLEM_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "graph/graph.hpp"

namespace qaoa::core {

/** One ZZ-interaction (CPHASE) between two logical qubits. */
struct ZZOp
{
    int a = 0;           ///< First logical qubit.
    int b = 0;           ///< Second logical qubit (b != a).
    double weight = 1.0; ///< Problem-edge weight (scales the angle).

    bool operator==(const ZZOp &other) const = default;
};

/**
 * A cost layer as gate angles per unit γ: the level with angle γ emits
 * CPHASE(γ·op.weight) per ZZ term, in the order of @ref zz, then
 * RZ(γ·z[q]) per non-zero field.  Every QAOA compile goes through this
 * one form; MaxCut has no fields (maxcutCost()), an Ising model folds
 * its factor of two into the values (IsingModel::cost()).
 */
struct CostHamiltonian
{
    int num_qubits = 0;    ///< Logical qubits.
    std::vector<ZZOp> zz;  ///< Two-qubit terms (the order is the knob
                           ///< IP/IC exploit).
    std::vector<double> z; ///< Per-qubit fields; empty when none.
};

/** Cost-Hamiltonian operations of a MaxCut instance (one per edge). */
std::vector<ZZOp> costOperations(const graph::Graph &problem);

/** The MaxCut cost layer: CPHASE(γ·w) per edge, zero-weight edges
 *  included, and no fields. */
CostHamiltonian maxcutCost(const graph::Graph &problem);

/**
 * Builds the logical level-p QAOA circuit of @p cost.
 *
 * @param cost    Cost layer; its ZZ terms are applied in the given order
 *                in every level, so callers reorder cost.zz first.
 * @param gammas  Cost angles, one per level.
 * @param betas   Mixer angles, one per level.
 * @param measure Append measurements (qubit l -> classical bit l).
 */
circuit::Circuit buildQaoaCircuit(const CostHamiltonian &cost,
                                  const std::vector<double> &gammas,
                                  const std::vector<double> &betas,
                                  bool measure = true);

/** MaxCut-style overload: @p cost_ops on @p num_qubits, no fields. */
circuit::Circuit buildQaoaCircuit(int num_qubits,
                                  const std::vector<ZZOp> &cost_ops,
                                  const std::vector<double> &gammas,
                                  const std::vector<double> &betas,
                                  bool measure = true);

/** Convenience overload taking the problem graph directly. */
circuit::Circuit buildQaoaCircuit(const graph::Graph &problem,
                                  const std::vector<double> &gammas,
                                  const std::vector<double> &betas,
                                  bool measure = true);

} // namespace qaoa::core

#endif // QAOA_QAOA_PROBLEM_HPP
