/**
 * @file
 * QL rule engine: static quality lints over a physical circuit.
 *
 * The warning-severity rules (QL101-QL107, QL111) flag structure a
 * quality-preserving compiler should never emit — gates that merge,
 * cancel, or only relabel qubits, and crosstalk-conflicting layers.  The
 * info-severity rules (QL108-QL110, QL112-QL114) are advisory cost-model
 * signals: routing over an unreliable edge when the mapping offered a
 * strictly better alternative, idle windows and active windows large
 * against T2, depth hotspots, low layer occupancy, and SWAP overhead.
 * All rules share one CircuitDag traversal; the timing rules read the
 * sweep analyzeCircuit() already ran.
 */

#ifndef QAOA_ANALYSIS_LINT_HPP
#define QAOA_ANALYSIS_LINT_HPP

#include <utility>
#include <vector>

#include "analysis/timing.hpp"
#include "circuit/circuit.hpp"
#include "common/diagnostics.hpp"
#include "hardware/calibration.hpp"
#include "hardware/coupling_map.hpp"

namespace qaoa::analysis {

/** An undirected coupling edge {a, b} on physical qubits. */
using Coupling = std::pair<int, int>;

/** A pair of couplings that must not drive two-qubit gates
 *  simultaneously (§VI; Murali et al.). */
struct CrosstalkPair
{
    Coupling first;
    Coupling second;
};

/** Knobs of the rule engine; defaults match the CI quality bar. */
struct LintOptions
{
    /** Device topology; enables QL108 when set with calibration. */
    const hw::CouplingMap *map = nullptr;

    /** Calibration; supplies per-qubit T2 and edge reliabilities. */
    const hw::CalibrationData *calibration = nullptr;

    /** Crosstalk-prone coupling pairs; enables QL111 when non-empty. */
    std::vector<CrosstalkPair> crosstalk_pairs;

    /** Durations for the timing-derived rules (QL109/QL110). */
    GateDurations durations{};

    /** Fallback T2 when no calibration is given. */
    double t2_ns = 70000.0;

    /** QL107: |angle mod 2pi| below this is a zero rotation. */
    double zero_angle_eps = 1.0e-9;

    /** QL109: idle window longer than this fraction of the qubit's T2. */
    double idle_budget_fraction = 0.02;

    /** QL110: active window longer than this fraction of the T2. */
    double exposure_budget_fraction = 0.25;

    /** QL112: chain length >= fraction * depth marks a hotspot qubit
     *  (and must also be >= twice the mean chain length). */
    double hotspot_fraction = 0.95;

    /** QL112/QL113: circuits shallower than this are exempt. */
    int min_depth = 8;

    /** QL113: mean gates per layer below this floor is low parallelism. */
    double parallelism_floor = 1.5;

    /** QL114: swap-count / other-2q-count ratio above this threshold. */
    double swap_overhead_ratio = 1.0;
};

/**
 * Finds concurrently scheduled two-qubit gate pairs landing on a
 * conflicting coupling pair (ASAP layers); one QL111 finding per clash.
 * transpiler::countCrosstalkViolations() is its size.
 */
diag::Report findCrosstalkClashes(const circuit::Circuit &physical,
                                  const std::vector<CrosstalkPair> &pairs);

/**
 * Runs every applicable QL rule over @p physical; @p timing is its
 * timing sweep under @p options.  Reached through analyzeCircuit(),
 * which runs that sweep once for the report and the rules alike.
 *
 * Rules needing hardware context (QL108, QL111) silently skip when the
 * corresponding option is absent.  QL115 is never produced here
 * (budgets are checked by checkBudget()).
 */
diag::Report lintCircuit(const circuit::Circuit &physical,
                         const LintOptions &options,
                         const TimingAnalysis &timing);

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_LINT_HPP
