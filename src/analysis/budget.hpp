/**
 * @file
 * Quality budgets: explicit bars a compiled circuit must clear.
 *
 * A budget is the CI contract for one (method, device) cell: maximum
 * depth / gate counts / execution time and minimum ESP or coherence.
 * Budgets live in checked-in JSON files (under tests/budgets/) written
 * by measuring the current compiler and adding headroom, so any future
 * change that regresses a paper metric (Figs. 7-11) fails the
 * quality-budget CI job with a QL115 finding naming the missed bar.
 */

#ifndef QAOA_ANALYSIS_BUDGET_HPP
#define QAOA_ANALYSIS_BUDGET_HPP

#include <string>

#include "common/diagnostics.hpp"

namespace qaoa::analysis {

struct QualitySummary;

/**
 * Bars for one compiled circuit; negative values mean "no bar".
 *
 * Counts are doubles so the JSON loader stays uniform; they are compared
 * with >= / <= directly.
 */
struct QualityBudget
{
    std::string name;    ///< Free-form label (e.g. "vic@ibmq_20_tokyo").
    double max_depth = -1.0;
    double max_gate_count = -1.0;
    double max_two_qubit_gates = -1.0;
    double max_swap_count = -1.0;
    double max_execution_ns = -1.0;
    double min_esp = -1.0;
    double min_coherence = -1.0;

    /**
     * Wall-clock compile-time bar in milliseconds ("compile_ms" in the
     * JSON).  Only enforced when the summary actually recorded a
     * compile time (QualitySummary::compile_ms >= 0) — analyzer-only
     * runs (qaoa_lint on a QASM file) have none and always pass.
     */
    double max_compile_ms = -1.0;
};

/**
 * Parses a flat JSON object {"key": value, ...} into a budget.
 *
 * Accepted keys: "name" (string) plus the numeric bars above; unknown
 * keys throw (typos must not silently weaken CI).  No external JSON
 * dependency: the accepted grammar is exactly one flat object with
 * string or number values.
 */
QualityBudget parseBudget(const std::string &json);

/** Reads and parses a budget file. @throws on I/O or parse errors. */
QualityBudget loadBudgetFile(const std::string &path);

/**
 * Checks @p summary against @p budget; one QL115 error per missed bar.
 *
 * @return Report holding only BudgetViolation findings (empty = pass).
 */
diag::Report checkBudget(const QualitySummary &summary,
                         const QualityBudget &budget);

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_BUDGET_HPP
