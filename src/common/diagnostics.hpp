/**
 * @file
 * Structured findings shared by the verifier and the quality linter.
 *
 * Every check reports a Finding with a stable rule ID, a severity, and
 * the gate/layer location inside the offending circuit; a Report
 * aggregates the findings of one run and renders them through
 * common/table (text and CSV) so CLI and CI output stay diff-friendly.
 *
 * One catalogue holds two disjoint families: QV rules (verify/) certify
 * *correctness* — the compiled circuit computes the right thing — and
 * QL rules (analysis/) measure *quality* — the compiled circuit wastes
 * gates, time, or fidelity.  A circuit can be QV clean and QL dirty, and
 * vice versa.
 */

#ifndef QAOA_COMMON_DIAGNOSTICS_HPP
#define QAOA_COMMON_DIAGNOSTICS_HPP

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace qaoa::diag {

/**
 * Rule catalogue (stable IDs; never renumber, only append within a
 * family).  The enumerators run in ID order: QV001-QV013, QL101-QL115.
 */
enum class Rule {
    // QV: translation validation (verify/).
    IllegalCoupling,      ///< QV001: 2q gate on a non-edge of the device.
    MaskedQubit,          ///< QV002: gate touches a dead/masked qubit.
    MappingMismatch,      ///< QV003: replayed final mapping differs from
                          ///< the mapping the compiler reported.
    MissingInteraction,   ///< QV004: expected logical ZZ term absent.
    SpuriousInteraction,  ///< QV005: entangling operation with no
                          ///< counterpart in the source problem.
    WrongAngle,           ///< QV006: ZZ pair present, angle wrong.
    GateAfterMeasure,     ///< QV007: unitary on an already-measured qubit.
    BadAngle,             ///< QV008: NaN/Inf/denormal gate parameter.
    UnusedQubit,          ///< QV009: initially mapped qubit never touched.
    NonCommutingReorder,  ///< QV010: gate order not reachable from the
                          ///< reference order by commuting exchanges.
    MeasureMismatch,      ///< QV011: classical bit != logical qubit held
                          ///< by the measured physical qubit.
    OperandRange,         ///< QV012: operand outside the register or a
                          ///< two-qubit gate with q0 == q1.
    UnmappedQubit,        ///< QV013: non-SWAP gate on a physical qubit
                          ///< holding no logical qubit.
    // QL: circuit quality (analysis/).
    MergeableRz,          ///< QL101: adjacent RZ/U1 rotations on one qubit
                          ///< with nothing between them (mergeable).
    MergeableCphase,      ///< QL102: adjacent CPHASE/CZ on the same pair
                          ///< with no interposed gate (angles add).
    CancellingCnot,       ///< QL103: adjacent identical CNOT pair.
    CancellingSwap,       ///< QL104: adjacent SWAP-SWAP on the same pair.
    TrailingSwap,         ///< QL105: SWAP followed only by 1q gates and
                          ///< measurements on both wires (relabel instead).
    RedundantHadamard,    ///< QL106: adjacent H-H pair on one qubit.
    ZeroRotation,         ///< QL107: RZ/U1/CPHASE with angle = 0 (mod 2pi).
    UnreliableEdge,       ///< QL108: 2q gate on an edge when a strictly
                          ///< more reliable route existed under the
                          ///< current mapping.
    LongIdleWindow,       ///< QL109: idle gap on an active qubit exceeding
                          ///< the T2 budget fraction.
    DecoherenceExposure,  ///< QL110: qubit active window exceeding the T2
                          ///< budget fraction.
    CrosstalkClash,       ///< QL111: known crosstalk pair co-scheduled in
                          ///< one layer.
    DepthHotspot,         ///< QL112: one qubit's gate chain dominates the
                          ///< circuit depth.
    LowParallelism,       ///< QL113: average layer occupancy far below the
                          ///< used-qubit count.
    SwapOverhead,         ///< QL114: routing SWAP overhead above threshold
                          ///< of the 2q gate count.
    BudgetViolation,      ///< QL115: an explicit --budget bar was missed.
};

/** Finding severity, in increasing order of weight. */
enum class Severity {
    Info,    ///< Advisory cost-model signal.
    Warning, ///< Suspicious or wasteful structure.
    Error,   ///< Semantic violation or missed budget.
};

/** "info" / "warning" / "error". */
const char *severityName(Severity s);

/** One catalogue row. */
struct RuleInfo
{
    const char *id;    ///< Stable rule ID, e.g. "QV001".
    const char *name;  ///< Kebab-case name, e.g. "illegal-coupling".
    Severity severity; ///< Severity every finding of the rule carries.
};

/** Number of rules in the catalogue. */
inline constexpr std::size_t kRuleCount =
    static_cast<std::size_t>(Rule::BudgetViolation) + 1;

/** The catalogue row of @p r. */
const RuleInfo &ruleInfo(Rule r);

/** One finding, anchored to a gate when one is implicated. */
struct Finding
{
    Rule rule = Rule::IllegalCoupling;
    int gate_index = -1; ///< Index into circuit.gates(); -1 = whole-circuit.
    int layer = -1;      ///< ASAP layer of the gate; -1 when not located.
    int q0 = -1;         ///< Implicated qubit (physical unless noted).
    int q1 = -1;         ///< Second implicated qubit; -1 when unused.
    std::string message; ///< Human-readable detail.
};

/**
 * Aggregated findings of one verification or lint run.
 *
 * clean(bar) is parameterized by the failure bar: the default (Error)
 * tolerates warnings and infos, Warning tolerates infos, Info tolerates
 * nothing.  spotless() is the same as clean(Severity::Info).
 */
class Report
{
  public:
    /** Appends a finding located at a gate, layer and qubits. */
    void add(Rule rule, int gate_index, int layer, int q0, int q1,
             std::string message);

    /** Appends a whole-circuit finding (no gate location). */
    void add(Rule rule, std::string message);

    /** Moves every finding of @p other into this report. */
    void merge(Report other);

    /** All findings in detection order. */
    [[nodiscard]] const std::vector<Finding> &diagnostics() const
    {
        return findings_;
    }

    /** Findings carrying @p rule. */
    [[nodiscard]] int count(Rule rule) const;

    /** Findings at exactly severity @p s. */
    [[nodiscard]] int countSeverity(Severity s) const
    {
        return by_severity_[static_cast<std::size_t>(s)];
    }

    /** True when no finding reaches severity @p bar. */
    [[nodiscard]] bool clean(Severity bar = Severity::Error) const;

    /** True when nothing at all was found. */
    [[nodiscard]] bool spotless() const { return findings_.empty(); }

    /** One-line digest that omits zero counts, e.g.
     *  "2 errors, 1 warning (QV001 x2, QV009)". */
    [[nodiscard]] std::string summary() const;

    /** Findings as a common/table (rule, name, severity, gate, layer,
     *  qubits, detail) for text or CSV rendering. */
    [[nodiscard]] Table toTable() const;

    /** Renders the findings table plus a "<label>: <summary>" line. */
    void print(std::ostream &os, const char *label, bool csv = false) const;

  private:
    std::vector<Finding> findings_;
    std::array<int, 3> by_severity_{};
};

} // namespace qaoa::diag

#endif // QAOA_COMMON_DIAGNOSTICS_HPP
