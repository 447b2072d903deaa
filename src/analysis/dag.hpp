/**
 * @file
 * Dependency DAG over a Circuit.
 *
 * Every static pass in analysis/ asks the same structural questions:
 * which gate precedes/follows gate g on qubit q (adjacency chains), what
 * does g depend on (dependency edges, BARRIERs included as
 * synchronization nodes), and which ASAP layer does g occupy.  Building
 * the DAG once per analyzed circuit answers all of them in O(1) per
 * query, so the timing pass, the ESP attribution and the QL lint rules
 * share one traversal instead of re-walking the gate list each.
 */

#ifndef QAOA_ANALYSIS_DAG_HPP
#define QAOA_ANALYSIS_DAG_HPP

#include <array>
#include <vector>

#include "circuit/circuit.hpp"

namespace qaoa::analysis {

/**
 * Per-gate dependency structure of one circuit.
 *
 * Gate indices refer to circuit.gates().  Dependency edges (preds/succs)
 * include BARRIER nodes — a barrier depends on the last event of every
 * qubit and everything after it depends on the barrier — so a
 * topological walk reproduces the scheduling semantics.  The
 * adjacency-chain accessors (nextOnQubit/prevOnQubit) skip barriers:
 * they answer the peephole question "is there really no operation
 * between these two gates on this wire".
 */
class CircuitDag
{
  public:
    /** Builds the DAG for @p circuit (kept by pointer; must outlive). */
    explicit CircuitDag(const circuit::Circuit &circuit);

    /** The analyzed circuit. */
    const circuit::Circuit &circuit() const { return *circuit_; }

    /** Dependency predecessors of gate @p gi (deduplicated). */
    const std::vector<int> &preds(int gi) const
    {
        return preds_[static_cast<std::size_t>(gi)];
    }

    /** Dependency successors of gate @p gi (deduplicated). */
    const std::vector<int> &succs(int gi) const
    {
        return succs_[static_cast<std::size_t>(gi)];
    }

    /**
     * Index of the next non-BARRIER gate acting on @p q after gate
     * @p gi, or -1 when none; @p gi must act on @p q.
     */
    int nextOnQubit(int gi, int q) const;

    /** Index of the previous non-BARRIER gate on @p q, or -1. */
    int prevOnQubit(int gi, int q) const;

    /** circuit::gateLayers(), with -1 for BARRIERs (they occupy none). */
    const std::vector<int> &layers() const { return layer_; }

    /** ASAP layer of gate @p gi (-1 for BARRIER). */
    int layerOf(int gi) const
    {
        return layer_[static_cast<std::size_t>(gi)];
    }

    /** Number of ASAP layers. */
    int layerCount() const { return layer_count_; }

    /** Non-BARRIER gate indices acting on qubit @p q, in program order. */
    const std::vector<int> &gatesOn(int q) const
    {
        return qubit_gates_[static_cast<std::size_t>(q)];
    }

  private:
    const circuit::Circuit *circuit_;
    std::vector<std::vector<int>> preds_;
    std::vector<std::vector<int>> succs_;
    std::vector<std::vector<int>> qubit_gates_;
    /** Position of gate gi inside gatesOn(q) chains: chain_pos_[gi] holds
     *  {pos on q0, pos on q1}. */
    std::vector<std::array<int, 2>> chain_pos_;
    std::vector<int> layer_;
    int layer_count_ = 0;
};

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_DAG_HPP
