/**
 * @file
 * Top-level QAOA compilation API — the Fig. 2 workflow in one call.
 *
 * Selects the initial mapping (NAIVE / GreedyV / QAIM), the CPHASE
 * ordering strategy (random / IP / IC / VIC) and drives the backend
 * compiler, returning the hardware-compliant circuit and the §V-A quality
 * metrics.
 */

#ifndef QAOA_QAOA_API_HPP
#define QAOA_QAOA_API_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/guard.hpp"
#include "graph/graph.hpp"
#include "hardware/calibration.hpp"
#include "hardware/coupling_map.hpp"
#include "qaoa/incremental.hpp"
#include "qaoa/problem.hpp"
#include "transpiler/compiler.hpp"

namespace qaoa::core {

class IsingModel;

/** Compilation methodology (§IV; NAIVE and GreedyV are the baselines). */
enum class Method {
    Naive,   ///< Random initial mapping + random CPHASE order.
    GreedyV, ///< GreedyV initial mapping + random CPHASE order.
    Qaim,    ///< QAIM initial mapping + random CPHASE order.
    Ip,      ///< QAIM + instruction-parallelized order, one-shot compile.
    Ic,      ///< QAIM + incremental per-layer compile.
    Vic,     ///< QAIM + variation-aware incremental compile.
};

/** Human-readable method name ("NAIVE", "QAIM", ...). */
std::string methodName(Method m);

/**
 * Method by lowercase CLI/wire name ("naive", "greedyv", "qaim", "ip",
 * "ic", "vic"); shared by the tools and the serve request decoder.
 *
 * @throws std::runtime_error on an unknown name.
 */
Method methodFromName(const std::string &name);

/** Options for compileQaoaMaxcut() and compileQaoaIsing(); both run
 *  the same pipeline, so every option means the same for either. */
struct QaoaCompileOptions
{
    Method method = Method::Ic;

    /** Cost angles, one per QAOA level (p = gammas.size()). */
    std::vector<double> gammas{0.7};

    /** Mixer angles, one per level. */
    std::vector<double> betas{0.35};

    /** Maximum CPHASE operations per layer for IP/IC/VIC (§V-H). */
    int packing_limit = 1 << 30;

    /** Master seed (instance-level determinism). */
    std::uint64_t seed = 7;

    /** Calibration data; required for VIC, optional otherwise. */
    const hw::CalibrationData *calibration = nullptr;

    /** Backend router tunables. */
    transpiler::RouterOptions router;

    /**
     * Usable-qubit mask of a degraded device
     * (hw::FaultInjector::usable()); nullptr treats every qubit as
     * usable.  With a mask, placement never touches dead or
     * off-component qubits and the result is at best
     * CompileStatus::Degraded when any qubit is masked out.
     */
    const std::vector<char> *allowed_qubits = nullptr;

    /**
     * Marks the device as a degraded view even when it happens to stay
     * connected (e.g. compiling against hw::FaultInjector::map() after
     * faults that only removed redundant couplings).  A successful
     * compile then reports CompileStatus::Degraded instead of Ok.
     */
    bool device_degraded = false;

    /**
     * Run the bounded retry ladder on failure: retry the requested
     * method with a relaxed router, then fall back (VIC -> IC -> QAIM,
     * others -> QAIM), recording each rung in the diagnostics.  When
     * false a single failed attempt yields CompileStatus::Failed.
     */
    bool allow_fallbacks = true;

    /**
     * Statically verify every retry-ladder rung through verify/: coupling
     * conformance against the (possibly degraded) map, SWAP-replay of the
     * reported mapping, and ZZ-interaction equivalence with the source
     * problem.  A rung whose output fails verification is treated like a
     * failed compile, so the ladder falls back instead of returning a
     * miscompiled circuit.  Costs one linear walk per rung.
     */
    bool verify = true;

    /** Translate the result to the {U1,U2,U3,CNOT} basis. */
    bool decompose_to_basis = true;

    /** Run the peephole optimizer on the compiled circuit (off by
     *  default to match the paper's un-optimized backend metrics). */
    bool peephole = false;

    /** Append measurements (logical qubit l -> classical bit l). */
    bool measure = true;

    /**
     * Run the static quality analyzer on the successful result's
     * physical circuit and record the report (timing, ESP when
     * `calibration` is set, QL findings) in CompileResult::quality.
     * One linear pass; never changes the compiled circuit.
     */
    bool analyze_quality = true;

    /** Crosstalk-prone coupling pairs for the analyzer's QL111 rule. */
    std::vector<analysis::CrosstalkPair> crosstalk_pairs;

    /**
     * Optional resilience guard (cancellation token + total deadline +
     * resource limits) threaded through every routing/search loop of
     * the compile.  Cancellation or total-deadline expiry aborts the
     * retry ladder with status Cancelled / TimedOut; resource-guard
     * trips are degradable (the ladder falls to the next rung).
     * nullptr (default) compiles unguarded with zero overhead.
     * Non-owning — must outlive the call.
     */
    const run::RunGuard *guard = nullptr;

    /**
     * Per-stage watchdog budget in milliseconds: each retry-ladder
     * rung runs under min(total deadline, now + stage budget), so one
     * stuck rung falls through to the next instead of eating the whole
     * compile's time.  Negative (default) = no per-stage budget.
     * Only takes effect when `guard` is set.
     */
    double stage_budget_ms = -1.0;
};

/**
 * Compiles the QAOA-MaxCut circuit of @p problem for @p map with the
 * chosen methodology.
 *
 * Hardware-state failures never throw: routing dead ends and
 * too-small usable regions surface as CompileStatus::Failed with a
 * human-readable failure_reason, after the bounded retry ladder (see
 * QaoaCompileOptions::allow_fallbacks) has been exhausted.  Compiles
 * that needed a fallback, or that ran on a degraded device, return
 * CompileStatus::Degraded with the fallbacks listed in diagnostics.
 *
 * @throws std::runtime_error only for argument-contract violations:
 *         VIC without calibration data, a problem larger than the whole
 *         device, or mismatched angle vectors.
 */
transpiler::CompileResult compileQaoaMaxcut(const graph::Graph &problem,
                                            const hw::CouplingMap &map,
                                            const QaoaCompileOptions &opts);

/**
 * Compiles the QAOA circuit of an arbitrary Ising cost Hamiltonian
 * (§VI "Applicability beyond QAOA-MaxCut") with the chosen methodology.
 *
 * The model's cost layer (IsingModel::cost()) goes through the same
 * pipeline as MaxCut, which is its unit-angle, field-free case: the
 * quadratic (CPHASE) terms flow through QAIM / IP / IC / VIC, and the
 * linear terms compile to virtual RZ rotations at the qubits'
 * post-cost-layer positions.  Failure and degradation behave as in
 * compileQaoaMaxcut().
 *
 * @throws std::runtime_error for fewer than two spins, more spins than
 *         the device has qubits, mismatched angle vectors or VIC
 *         without calibration data.
 */
transpiler::CompileResult compileQaoaIsing(const IsingModel &model,
                                           const hw::CouplingMap &map,
                                           const QaoaCompileOptions &opts);

} // namespace qaoa::core

#endif // QAOA_QAOA_API_HPP
