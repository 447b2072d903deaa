/**
 * @file
 * One-call circuit-quality analysis: metrics + lint + budget.
 *
 * analyzeCircuit() bundles the analysis passes into the report the
 * compile pipeline records in CompileResult and the qaoa_lint CLI
 * prints: the paper's scalar quality metrics (depth, gate counts, ESP —
 * Figs. 7-11), the timing sweep, and the QL findings, with optional
 * budget enforcement on top.
 */

#ifndef QAOA_ANALYSIS_QUALITY_HPP
#define QAOA_ANALYSIS_QUALITY_HPP

#include "analysis/budget.hpp"
#include "analysis/esp.hpp"
#include "analysis/lint.hpp"
#include "analysis/timing.hpp"
#include "circuit/circuit.hpp"
#include "common/diagnostics.hpp"

namespace qaoa::analysis {

/** Scalar quality metrics of one compiled circuit. */
struct QualitySummary
{
    int depth = 0;          ///< Critical-path depth (§V-A definition).
    int gate_count = 0;     ///< Gates, BARRIERs excluded.
    int two_qubit_gates = 0;
    int swap_count = 0;
    double execution_ns = 0.0;   ///< Timing-pass makespan.
    double coherence = 1.0;      ///< Decoherence-exposure factor.
    double esp = -1.0;           ///< Success probability; -1 = no
                                 ///< calibration supplied.
    double esp_one_qubit = -1.0; ///< ESP factor from 1q gates.
    double esp_two_qubit = -1.0; ///< ESP factor from 2q gates.
    double esp_readout = -1.0;   ///< ESP factor from measurements.
    double compile_ms = -1.0;    ///< Wall-clock compile time; -1 = not
                                 ///< recorded (analyzer-only runs).
};

/** Inputs of analyzeCircuit(). */
struct QualityOptions
{
    /** Rule-engine knobs; its map/calibration also feed the ESP and
     *  timing passes. */
    LintOptions lint{};

    /** Bars to enforce; violations append QL115 errors. */
    const QualityBudget *budget = nullptr;
};

/** Everything the analyzer knows about one circuit. */
struct QualityReport
{
    QualitySummary summary{};
    EspBreakdown esp{};      ///< Valid when summary.esp >= 0.
    TimingAnalysis timing{};
    diag::Report lint;       ///< QL findings incl. budget violations.

    /** True when no finding reaches severity @p min (by default the
     *  warning bar: infos are advisory). */
    bool clean(diag::Severity min = diag::Severity::Warning) const
    {
        return lint.clean(min);
    }
};

/** Runs metrics, timing, ESP (when calibrated), lint, and budget. */
QualityReport analyzeCircuit(const circuit::Circuit &physical,
                             const QualityOptions &options = {});

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_QUALITY_HPP
