/**
 * @file
 * Translation-validation verifier for compiled QAOA circuits.
 *
 * The paper's methodologies (QAIM/IP/IC/VIC) freely reorder and re-route
 * the cost layer on the strength of CPHASE commutativity; nothing in the
 * compile pipeline used to *prove* the output still implements the source
 * problem.  This module closes that gap statically — no simulation, any
 * qubit count:
 *
 *  1. coupling conformance — every two-qubit gate acts on an enabled
 *     edge of the (possibly fault-degraded) coupling map;
 *  2. mapping replay — the logical→physical permutation is re-derived
 *     by replaying SWAPs from the initial layout and cross-checked
 *     against the mapping the compiler reported;
 *  3. interaction equivalence — walking the circuit under the replayed
 *     mapping yields a multiset of logical ZZ(i,j,γ) interactions that
 *     must equal the problem's weighted edge multiset exactly (each
 *     CPHASE once, correct pair, correct angle mod 2π);
 *
 * plus structural lint rules (QV007..QV013) and a commutation check
 * (QV010) that certifies a reordered gate sequence is reachable from a
 * reference order by exchanging only commuting neighbours.
 *
 * Basis circuits are handled by *lifting*: the contiguous patterns
 * CX(a,b)·U1/RZ(b,γ)·CX(a,b) → CPHASE(a,b,γ) and CX(a,b)·CX(b,a)·CX(a,b)
 * → SWAP(a,b) emitted by decomposeToBasis()/toQasm() are recognized, so
 * exported QASM round-trips verify too.
 *
 * Everything here speaks raw logical→physical vectors rather than
 * transpiler::Layout so the transpiler itself can call the verifier
 * without a dependency cycle.
 */

#ifndef QAOA_VERIFY_VERIFIER_HPP
#define QAOA_VERIFY_VERIFIER_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/diagnostics.hpp"
#include "hardware/coupling_map.hpp"

namespace qaoa::verify {

/** The verifier's report under its older name, which the benchmark
 *  harness (perfbench/) still spells; new code names diag::Report. */
using VerifyReport = diag::Report;

/** One expected logical ZZ interaction with its absolute CPHASE angle
 *  (the caller expands levels and edge weights: angle = γ_level · w). */
struct ZZTerm
{
    int a = 0;          ///< First logical qubit.
    int b = 0;          ///< Second logical qubit.
    double angle = 0.0; ///< CPHASE angle carried by the interaction.
};

/** What a mapping replay of a physical circuit recovered. */
struct ReplayResult
{
    /** The circuit re-indexed to logical qubits under the evolving
     *  mapping; SWAPs (raw or lifted) are consumed into the mapping and
     *  not emitted.  Lifted CPHASEs appear as single CPHASE gates. */
    circuit::Circuit logical{0};

    /** Replayed final logical→physical mapping. */
    std::vector<int> final_log_to_phys;

    /** Logical ZZ interactions observed (CPHASE raw or lifted; CZ counts
     *  as angle π), in program order. */
    std::vector<ZZTerm> interactions;

    /** Gate index (into the physical circuit) of each interaction. */
    std::vector<int> interaction_gates;
};

/**
 * Replays a physical circuit from an initial logical→physical mapping.
 *
 * Walks the gates in order, evolving the mapping at each SWAP, lifting
 * basis-gate patterns when @p lift_basis is set, and recording lint
 * findings (QV007 gate-after-measure, QV008 bad angles, QV011 measure
 * mismatch, QV012 operand range, QV013 unmapped qubit) into @p report.
 *
 * @param physical          Circuit over physical qubits.
 * @param initial_log_to_phys initial mapping (entries distinct, inside
 *                          the register).
 * @param lift_basis        Recognize decomposed CPHASE/SWAP patterns.
 * @param report            Receives walk-time findings.
 */
[[nodiscard]] ReplayResult
replayToLogical(const circuit::Circuit &physical,
                const std::vector<int> &initial_log_to_phys,
                bool lift_basis, diag::Report &report);

/** Inputs of one full verification run. */
struct VerifySpec
{
    /** Target topology for coupling conformance; nullptr skips QV001. */
    const hw::CouplingMap *map = nullptr;

    /** Usable-qubit mask of a degraded device (QV002); nullptr = all
     *  usable. */
    const std::vector<char> *allowed_qubits = nullptr;

    /** Initial logical→physical mapping the compile started from. */
    std::vector<int> initial_log_to_phys;

    /** Compiler-reported final mapping to cross-check (QV003); empty
     *  skips the cross-check. */
    std::vector<int> expected_final;

    /** Expected logical ZZ multiset (QV004/QV005/QV006); nullptr skips
     *  interaction equivalence. */
    const std::vector<ZZTerm> *expected_interactions = nullptr;

    /** Recognize decomposed CPHASE/SWAP patterns while replaying. */
    bool lift_basis = true;

    /** Run the structural lint rules (QV007..QV013, QV009). */
    bool lints = true;

    /** Require measurements to follow the cbit == logical-qubit
     *  convention (QV011). */
    bool check_measure_convention = true;

    /** Absolute tolerance for angle comparison (after 2π reduction). */
    double angle_tolerance = 1e-9;

    /**
     * Drop expected/observed interactions whose angle is ≡ 0 (mod 2π)
     * before matching — the peephole optimizer legally removes
     * zero-angle CPHASEs, which is not a miscompile.
     */
    bool ignore_zero_interactions = false;
};

/**
 * Runs every enabled check of @p spec against @p physical.
 *
 * This is the per-compile entry point: the QAOA API verifies every
 * retry-ladder rung through it, and the CLI's --verify/--verify-strict
 * render its report.
 */
[[nodiscard]] diag::Report verifyCircuit(const circuit::Circuit &physical,
                                         const VerifySpec &spec);

/**
 * Generic translation validation for the backend compiler: checks that
 * @p routed is @p logical re-expressed on hardware — same gate multiset
 * (type, logical operands, parameters, classical bits; SWAPs excluded as
 * routing artifacts, BARRIERs ignored), coupling-conformant, with a
 * replayed mapping matching @p expected_final.  Runs on the routed
 * high-level circuit *before* basis translation and peephole.
 */
[[nodiscard]] diag::Report
verifyRouted(const circuit::Circuit &logical,
             const circuit::Circuit &routed,
             const hw::CouplingMap &map,
             const std::vector<int> &initial_log_to_phys,
             const std::vector<int> &expected_final);

/**
 * QV010: certifies @p observed is a commuting reorder of @p reference.
 *
 * Both circuits must hold the same gate multiset (mismatches surface as
 * QV004/QV005).  Every pair of gates whose relative order differs
 * between the two sequences must commute (sim/commutation's exact
 * rules with numeric fallback); a non-commuting exchanged pair is a
 * QV010 error.  O(n²) pairwise in the worst case — intended for tests
 * and spot audits, not the hot compile path.  BARRIERs are ignored.
 */
void checkReorder(const circuit::Circuit &reference,
                  const circuit::Circuit &observed, diag::Report &report);

} // namespace qaoa::verify

#endif // QAOA_VERIFY_VERIFIER_HPP
