#include "analysis/budget.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "analysis/quality.hpp"
#include "common/error.hpp"
#include "common/text.hpp"

namespace qaoa::analysis {

namespace {

/** Minimal parser for one flat JSON object of string/number values. */
class FlatJsonParser
{
  public:
    explicit FlatJsonParser(const std::string &text) : text_(text) {}

    /** Invokes @p on_pair for every "key": value pair. */
    template <typename F>
    void parse(F &&on_pair)
    {
        skipSpace();
        expect('{');
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            expectEnd();
            return;
        }
        while (true) {
            const std::string key = parseString();
            skipSpace();
            expect(':');
            skipSpace();
            on_pair(key, parseValue());
            skipSpace();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                skipSpace();
                continue;
            }
            expect('}');
            expectEnd();
            return;
        }
    }

  private:
    char peek() const
    {
        QAOA_CHECK(pos_ < text_.size(),
                   "budget JSON: unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        QAOA_CHECK(peek() == c, "budget JSON: expected '"
                                    << c << "' at offset " << pos_
                                    << ", got '" << peek() << "'");
        ++pos_;
    }

    /** Requires nothing but whitespace after the closing brace. */
    void expectEnd()
    {
        skipSpace();
        QAOA_CHECK(pos_ == text_.size(),
                   "budget JSON: trailing content at offset " << pos_);
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (peek() != '"') {
            QAOA_CHECK(peek() != '\\',
                       "budget JSON: escapes are not supported");
            out.push_back(text_[pos_++]);
        }
        ++pos_; // closing quote
        return out;
    }

    /** Values are strings or numbers; numbers come back as their text. */
    std::string parseValue()
    {
        if (peek() == '"')
            return parseString();
        std::string out;
        while (pos_ < text_.size() && peek() != ',' && peek() != '}' &&
               !std::isspace(static_cast<unsigned char>(text_[pos_])))
            out.push_back(text_[pos_++]);
        QAOA_CHECK(!out.empty(), "budget JSON: empty value");
        return out;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

double
toNumber(const std::string &key, const std::string &value)
{
    return text::orThrow(text::parseDouble(value), "budget JSON", key);
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

} // namespace

QualityBudget
parseBudget(const std::string &json)
{
    QualityBudget budget;
    FlatJsonParser parser(json);
    parser.parse([&](const std::string &key, const std::string &value) {
        if (key == "name")
            budget.name = value;
        else if (key == "max_depth")
            budget.max_depth = toNumber(key, value);
        else if (key == "max_gate_count")
            budget.max_gate_count = toNumber(key, value);
        else if (key == "max_two_qubit_gates")
            budget.max_two_qubit_gates = toNumber(key, value);
        else if (key == "max_swap_count")
            budget.max_swap_count = toNumber(key, value);
        else if (key == "max_execution_ns")
            budget.max_execution_ns = toNumber(key, value);
        else if (key == "min_esp")
            budget.min_esp = toNumber(key, value);
        else if (key == "min_coherence")
            budget.min_coherence = toNumber(key, value);
        else if (key == "compile_ms")
            budget.max_compile_ms = toNumber(key, value);
        else
            QAOA_CHECK(false, "budget JSON: unknown key \"" << key
                                                            << "\"");
    });
    return budget;
}

QualityBudget
loadBudgetFile(const std::string &path)
{
    std::ifstream in(path);
    QAOA_CHECK(in.good(), "cannot open budget file: " << path);
    std::ostringstream buf;
    buf << in.rdbuf();
    QualityBudget budget = parseBudget(buf.str());
    if (budget.name.empty())
        budget.name = path;
    return budget;
}

LintReport
checkBudget(const QualitySummary &summary, const QualityBudget &budget)
{
    LintReport report;
    const std::string label =
        budget.name.empty() ? std::string("budget") : budget.name;
    auto bar = [&](double value, double limit, bool is_max,
                   const char *metric) {
        if (limit < 0.0)
            return;
        const bool violated = is_max ? value > limit : value < limit;
        if (violated)
            report.add(Rule::BudgetViolation,
                       label + ": " + metric + " " + fmt(value) + " " +
                           (is_max ? "exceeds" : "below") + " bar " +
                           fmt(limit));
    };
    bar(summary.depth, budget.max_depth, true, "depth");
    bar(summary.gate_count, budget.max_gate_count, true, "gate count");
    bar(summary.two_qubit_gates, budget.max_two_qubit_gates, true,
        "2q gate count");
    bar(summary.swap_count, budget.max_swap_count, true, "swap count");
    bar(summary.execution_ns, budget.max_execution_ns, true,
        "execution time (ns)");
    bar(summary.esp, budget.min_esp, false, "esp");
    bar(summary.coherence, budget.min_coherence, false, "coherence");
    if (summary.compile_ms >= 0.0)
        bar(summary.compile_ms, budget.max_compile_ms, true,
            "compile time (ms)");
    return report;
}

} // namespace qaoa::analysis
