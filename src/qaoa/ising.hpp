/**
 * @file
 * General Ising-model cost Hamiltonians (§VI "Applicability beyond
 * QAOA-MaxCut").
 *
 * Any NP-hard combinatorial problem can be written in the Ising format
 *     C(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j,   s_i in {-1, +1}
 * whose quadratic terms become ZZ-interactions (CPHASE gates) and whose
 * linear terms become single-qubit RZ rotations.  All four compilation
 * methodologies apply unchanged because the CPHASE set is still mutually
 * commuting — IsingModel::cost() hands the model to the one QAOA
 * builder and compile pipeline, and this module adds canonical problem
 * encodings (MaxCut, weighted MaxCut, number partitioning, vertex cover
 * via QUBO).
 */

#ifndef QAOA_QAOA_ISING_HPP
#define QAOA_QAOA_ISING_HPP

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "qaoa/problem.hpp"

namespace qaoa::core {

/**
 * An Ising cost model over n spins.
 *
 * Spin i of an assignment bitmask is s_i = +1 when bit i is 0 and -1
 * when bit i is 1 (the |0> / |1> computational-basis convention).
 */
class IsingModel
{
  public:
    /** Creates a model with all coefficients zero. */
    explicit IsingModel(int num_spins = 0);

    /** Number of spins (qubits). */
    int numSpins() const { return static_cast<int>(linear_.size()); }

    /** Adds @p h to the linear coefficient of spin i. */
    void addLinear(int i, double h);

    /** Adds @p j to the quadratic coefficient of the pair {i, k}. */
    void addQuadratic(int i, int k, double j);

    /** Adds a constant offset (tracked so energies match the problem). */
    void addOffset(double c) { offset_ += c; }

    /** Linear coefficient h_i. */
    double linear(int i) const;

    /** Quadratic coefficient J_ik (0 when absent). */
    double quadratic(int i, int k) const;

    /** Constant offset. */
    double offset() const { return offset_; }

    /** Non-zero quadratic terms as ZZ operations (weight = J). */
    std::vector<ZZOp> quadraticOps() const;

    /**
     * The QAOA cost layer of the model: e^{-iγJ ZZ} is CPHASE(2γJ) and
     * e^{-iγh Z} is RZ(2γh) up to global phase, so the ZZ terms are
     * quadraticOps() with weight 2J and the fields are 2h.  Doubling is
     * exact in binary floating point, so γ·(2J) rounds like (2γ)·J.
     */
    CostHamiltonian cost() const;

    /** Energy of a computational-basis assignment. */
    double energy(std::uint64_t assignment) const;

    /** Exhaustive minimum over all assignments (numSpins() <= 26). */
    struct GroundState
    {
        double energy = 0.0;
        std::uint64_t assignment = 0;
    };
    GroundState groundState() const;

  private:
    void checkSpin(int i) const;

    std::vector<double> linear_;
    std::vector<ZZOp> quadratic_; ///< weight carries J_ik.
    double offset_ = 0.0;
};

/** @name Canonical encodings
 * @{ */

/** MaxCut of a (weighted) graph: maximizing the cut == minimizing this
 *  Ising energy. */
IsingModel maxcutToIsing(const graph::Graph &problem);

/**
 * Number partitioning: split the multiset @p numbers into two halves
 * with minimal difference; energy = (sum_i a_i s_i)^2 expanded to Ising
 * form (constant dropped into the offset).
 */
IsingModel partitionToIsing(const std::vector<double> &numbers);

/**
 * Minimum vertex cover via the standard QUBO penalty form:
 *     minimize sum_i x_i + P * sum_{(i,j) in E} (1 - x_i)(1 - x_j)
 * with penalty @p penalty > 1.
 */
IsingModel vertexCoverToIsing(const graph::Graph &problem,
                              double penalty = 2.0);

/** @} */

} // namespace qaoa::core

#endif // QAOA_QAOA_ISING_HPP
