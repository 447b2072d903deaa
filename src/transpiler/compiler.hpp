/**
 * @file
 * Compile pipeline driver: route -> basis translation -> metrics.
 *
 * This is the "Backend Compiler" box of Fig. 2.  Given a logical circuit
 * and an initial layout it produces a hardware-compliant basis-gate
 * circuit and the quality metrics of §V-A (depth, gate count, SWAPs,
 * compile time).
 */

#ifndef QAOA_TRANSPILER_COMPILER_HPP
#define QAOA_TRANSPILER_COMPILER_HPP

#include <string>
#include <vector>

#include "analysis/quality.hpp"
#include "circuit/circuit.hpp"
#include "common/deadline.hpp"
#include "hardware/coupling_map.hpp"
#include "transpiler/layout.hpp"
#include "transpiler/router.hpp"

namespace qaoa::transpiler {

/**
 * Outcome taxonomy of a compile.
 *
 * Argument-contract violations (null calibration for VIC, mismatched
 * angle vectors, gates after measurement) still throw — they are
 * programming errors.  Hardware-state problems (faulty couplings,
 * fragmented devices, routing failures) surface here instead, so one bad
 * calibration snapshot degrades service quality rather than crashing it.
 */
enum class CompileStatus {
    Ok,       ///< Compiled on the first attempt, healthy device.
    Degraded, ///< Compiled, but on a degraded device and/or after
              ///< retry-ladder fallbacks (see CompileResult::diagnostics).
    Failed,   ///< No attempt produced a circuit; see failure_reason.
    TimedOut, ///< The compile deadline expired (run::Deadline); no
              ///< circuit is emitted.
    Cancelled, ///< A run::CancelToken tripped mid-compile.
    ResourceExceeded, ///< A run::ResourceLimits guard tripped on every
                      ///< rung (SWAP breaker, A* cap, allocation cap).
};

/** Human-readable status name ("ok", "degraded", "timed-out", ...). */
std::string statusName(CompileStatus s);

/** Options for one compile run. */
struct CompileOptions
{
    RouterOptions router;          ///< SWAP-insertion tunables.
    bool decompose_to_basis = true; ///< Translate to {U1,U2,U3,CNOT}.

    /**
     * Layer-partitioned routing (the conventional-backend model of §III):
     * the body is rebuilt as ASAP layers separated by barriers, so the
     * router satisfies one layer completely before the next — gate order
     * then matters, which is what IP/IC exploit.  The barriers are
     * scheduling-only and are stripped from the output.
     */
    bool layered_routing = false;

    /**
     * Run the peephole optimizer on the routed circuit (before and after
     * basis translation) — cancels redundant CNOT/SWAP pairs and fuses
     * rotations.  Off by default so reported metrics match the paper's
     * un-optimized backend.
     */
    bool peephole = false;
};

/** Quality metrics of a compiled circuit (§V-A). */
struct CompileReport
{
    int depth = 0;           ///< Critical-path length.
    int gate_count = 0;      ///< Total gates (BARRIERs excluded).
    int cx_count = 0;        ///< Native CNOT count.
    int swap_count = 0;      ///< SWAPs inserted by routing.
    double compile_seconds = 0.0; ///< Wall-clock compile time.
};

/** Output of compileCircuit(). */
struct CompileResult
{
    circuit::Circuit compiled{0}; ///< Hardware-compliant circuit.

    /**
     * The routed circuit before basis translation: high-level gates
     * (CPHASE/SWAP/...) on physical qubits.  Identical to `compiled` when
     * decompose_to_basis is off.  This is what verify/ checks without
     * having to lift basis patterns.
     */
    circuit::Circuit physical{0};

    Layout initial_layout;        ///< Layout before the first gate.
    Layout final_layout;          ///< Layout after the last gate.
    CompileReport report;         ///< Quality metrics.

    CompileStatus status = CompileStatus::Ok; ///< Outcome class.

    /** Fallbacks taken and degradations noticed, in order. */
    std::vector<std::string> diagnostics;

    /**
     * Static quality analysis of `physical` (timing, ESP, QL findings).
     * Filled by the qaoa-level pipeline when
     * QaoaCompileOptions::analyze_quality is on; default-empty otherwise.
     */
    analysis::QualityReport quality;

    /**
     * Watchdog flight record: one trace per pipeline stage (retry-
     * ladder rung) with elapsed time, retry ordinal and outcome.
     * Filled by the qaoa-level pipeline when a run::RunGuard is
     * attached; default-empty otherwise.
     */
    std::vector<run::StageTrace> stages;

    /** Human-readable reason when the compile produced no circuit. */
    std::string failure_reason;

    /** True when a usable circuit was produced (Ok or Degraded);
     *  false for Failed / TimedOut / Cancelled / ResourceExceeded. */
    bool
    ok() const
    {
        return status == CompileStatus::Ok ||
               status == CompileStatus::Degraded;
    }
};

/**
 * Compiles @p logical for @p map starting from @p initial.
 *
 * The measurement mapping convention: MEASURE gates keep their logical
 * classical bit, so after execution classical bit l holds the value of
 * logical qubit l regardless of the SWAPs inserted.
 *
 * Routing failures (unroutable gates on a fragmented device) do not
 * throw: the result carries status == CompileStatus::Failed and a
 * failure_reason.  Input-contract violations (e.g. a gate after a
 * measurement) still throw std::runtime_error.
 */
CompileResult compileCircuit(const circuit::Circuit &logical,
                             const hw::CouplingMap &map,
                             const Layout &initial,
                             const CompileOptions &options = {});

/**
 * The finishing policy every compile path shares: peephole (when
 * options.peephole), basis translation (when
 * options.decompose_to_basis), peephole again, then the §V-A report.
 *
 * @param physical      Routed circuit on physical qubits.
 * @param initial       Layout before the first gate.
 * @param final_layout  Layout after the last gate.
 * @param swap_count    SWAPs the routing inserted.
 * @return An Ok result without compile_seconds; the caller owns timing
 *         and any status beyond Ok.
 */
CompileResult finishCompile(circuit::Circuit physical, const Layout &initial,
                            const Layout &final_layout, int swap_count,
                            const CompileOptions &options);

} // namespace qaoa::transpiler

#endif // QAOA_TRANSPILER_COMPILER_HPP
