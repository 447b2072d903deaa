#include "common/diagnostics.hpp"

#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace qaoa::diag {

namespace {

constexpr Severity E = Severity::Error;
constexpr Severity W = Severity::Warning;
constexpr Severity I = Severity::Info;

// QV rules are errors except QV009.  QL warnings flag structure a
// quality-preserving compiler should never emit; QL infos are advisory
// cost-model signals.  QL104 is advisory because the paper-faithful
// layered router legitimately emits back-to-back SWAP pairs on sparse
// topologies (the peephole pass removes them when enabled).
constexpr std::array<RuleInfo, kRuleCount> kRules = {{
    {"QV001", "illegal-coupling", E},
    {"QV002", "masked-qubit", E},
    {"QV003", "mapping-mismatch", E},
    {"QV004", "missing-interaction", E},
    {"QV005", "spurious-interaction", E},
    {"QV006", "wrong-angle", E},
    {"QV007", "gate-after-measure", E},
    {"QV008", "bad-angle", E},
    {"QV009", "unused-qubit", W},
    {"QV010", "non-commuting-reorder", E},
    {"QV011", "measure-mismatch", E},
    {"QV012", "operand-range", E},
    {"QV013", "unmapped-qubit", E},
    {"QL101", "mergeable-rz", W},
    {"QL102", "mergeable-cphase", W},
    {"QL103", "cancelling-cnot", W},
    {"QL104", "cancelling-swap", I},
    {"QL105", "trailing-swap", W},
    {"QL106", "redundant-hadamard", W},
    {"QL107", "zero-rotation", W},
    {"QL108", "unreliable-edge", I},
    {"QL109", "long-idle-window", I},
    {"QL110", "decoherence-exposure", I},
    {"QL111", "crosstalk-clash", W},
    {"QL112", "depth-hotspot", I},
    {"QL113", "low-parallelism", I},
    {"QL114", "swap-overhead", I},
    {"QL115", "budget-violation", E},
}};

} // namespace

const RuleInfo &
ruleInfo(Rule r)
{
    return kRules[static_cast<std::size_t>(r)];
}

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    QAOA_ASSERT(false, "unknown severity");
    return "";
}

void
Report::add(Rule rule, int gate_index, int layer, int q0, int q1,
            std::string message)
{
    ++by_severity_[static_cast<std::size_t>(ruleInfo(rule).severity)];
    findings_.push_back({rule, gate_index, layer, q0, q1, std::move(message)});
}

void
Report::add(Rule rule, std::string message)
{
    add(rule, -1, -1, -1, -1, std::move(message));
}

void
Report::merge(Report other)
{
    for (std::size_t s = 0; s < by_severity_.size(); ++s)
        by_severity_[s] += other.by_severity_[s];
    findings_.insert(findings_.end(),
                     std::make_move_iterator(other.findings_.begin()),
                     std::make_move_iterator(other.findings_.end()));
}

int
Report::count(Rule rule) const
{
    int n = 0;
    for (const Finding &f : findings_)
        if (f.rule == rule)
            ++n;
    return n;
}

bool
Report::clean(Severity bar) const
{
    for (std::size_t s = static_cast<std::size_t>(bar);
         s < by_severity_.size(); ++s)
        if (by_severity_[s] > 0)
            return false;
    return true;
}

std::string
Report::summary() const
{
    if (findings_.empty())
        return "clean";
    std::ostringstream os;
    bool lead = false;
    for (Severity s : {Severity::Error, Severity::Warning, Severity::Info}) {
        const int n = countSeverity(s);
        if (n == 0)
            continue;
        if (lead)
            os << ", ";
        lead = true;
        os << n << " " << severityName(s) << (n == 1 ? "" : "s");
    }
    // Stable per-rule counts, ordered by rule ID.
    std::map<std::string, int> by_rule;
    for (const Finding &f : findings_)
        ++by_rule[ruleInfo(f.rule).id];
    os << " (";
    bool first = true;
    for (const auto &[id, n] : by_rule) {
        if (!first)
            os << ", ";
        first = false;
        os << id;
        if (n > 1)
            os << " x" << n;
    }
    os << ")";
    return os.str();
}

Table
Report::toTable() const
{
    Table t({"rule", "name", "severity", "gate", "layer", "qubits",
             "detail"});
    for (const Finding &f : findings_) {
        std::ostringstream qubits;
        if (f.q0 >= 0) {
            qubits << "q" << f.q0;
            if (f.q1 >= 0)
                qubits << ",q" << f.q1;
        } else {
            qubits << "-";
        }
        const RuleInfo &info = ruleInfo(f.rule);
        t.addRow({info.id, info.name, severityName(info.severity),
                  f.gate_index >= 0 ? std::to_string(f.gate_index) : "-",
                  f.layer >= 0 ? std::to_string(f.layer) : "-",
                  qubits.str(), f.message});
    }
    return t;
}

void
Report::print(std::ostream &os, const char *label, bool csv) const
{
    if (!findings_.empty()) {
        Table t = toTable();
        if (csv)
            t.printCsv(os);
        else
            t.print(os);
    }
    os << label << ": " << summary() << "\n";
}

} // namespace qaoa::diag
