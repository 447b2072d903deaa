#include "circuit/qasm_parser.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/text.hpp"

namespace qaoa::circuit {

namespace {

/**
 * Converts a whole token to a non-negative integer (common/text.hpp),
 * so malformed input ("3x", "abc", "", numbers past INT_MAX) surfaces
 * as a QAOA_CHECK diagnostic with the offending line.
 */
int
parseIndexChecked(const std::string &token, int line, const char *what)
{
    const StatusOr<int> index = text::parseInt(text::trim(token), 0);
    QAOA_CHECK(index.ok(), "line " << line << ": bad " << what << " '"
                                   << token << "' ("
                                   << index.status().message() << ")");
    return index.value();
}

/**
 * Checked strtod starting at @p pos: returns the value and advances
 * @p pos past the consumed characters, or raises a line-numbered
 * diagnostic when no number can be read there.  Unlike std::stod this
 * accepts subnormal literals — strtod flags them ERANGE but still
 * returns the nearest representable value, and the bit-exact text
 * round trip needs them — while genuine overflow is still rejected.
 */
double
parseRealChecked(const std::string &s, std::size_t &pos, int line,
                 const std::string &expr)
{
    const char *start = s.c_str() + pos;
    char *end = nullptr;
    errno = 0;
    // qe-allow(QE107): a positional reader; the angle ends mid-line.
    const double value = std::strtod(start, &end);
    QAOA_CHECK(end != start, "line " << line << ": bad angle '" << expr
                                     << "'");
    QAOA_CHECK(errno != ERANGE || std::fabs(value) != HUGE_VAL,
               "line " << line << ": angle out of range '" << expr
                       << "'");
    pos += static_cast<std::size_t>(end - start);
    return value;
}

/**
 * Evaluates a simple angle expression: decimal literals and `pi`
 * combined with unary minus, `*` and `/` (left to right, matching the
 * forms qelib headers use).
 */
double
evalAngle(const std::string &expr, int line)
{
    std::string s = text::trim(expr);
    QAOA_CHECK(!s.empty(), "line " << line << ": empty angle");
    double value = 1.0;
    char op = '*';
    std::size_t i = 0;
    bool first = true;
    while (i < s.size()) {
        while (i < s.size() && std::isspace(s[i]))
            ++i;
        if (i >= s.size())
            break;
        double sign = 1.0;
        while (i < s.size() && (s[i] == '+' || s[i] == '-')) {
            if (s[i] == '-')
                sign = -sign;
            ++i;
        }
        double factor = 0.0;
        if (s.compare(i, 2, "pi") == 0) {
            factor = std::numbers::pi;
            i += 2;
        } else {
            factor = parseRealChecked(s, i, line, expr);
        }
        factor *= sign;
        if (first) {
            value = factor;
            first = false;
        } else if (op == '*') {
            value *= factor;
        } else {
            QAOA_CHECK(factor != 0.0,
                       "line " << line << ": division by zero in angle");
            value /= factor;
        }
        while (i < s.size() && std::isspace(s[i]))
            ++i;
        if (i < s.size()) {
            QAOA_CHECK(s[i] == '*' || s[i] == '/',
                       "line " << line << ": unsupported operator '"
                               << s[i] << "' in angle '" << expr << "'");
            op = s[i];
            ++i;
        }
    }
    QAOA_CHECK(!first, "line " << line << ": empty angle '" << expr
                               << "'");
    return value;
}

/** Parses `q[3]` into 3 (register name must match @p reg). */
int
parseOperand(const std::string &token, const std::string &reg, int line)
{
    std::string t = text::trim(token);
    std::size_t lb = t.find('['), rb = t.find(']');
    QAOA_CHECK(lb != std::string::npos && rb != std::string::npos &&
                   rb > lb + 1 && text::trim(t.substr(0, lb)) == reg,
               "line " << line << ": bad operand '" << token << "'");
    return parseIndexChecked(t.substr(lb + 1, rb - lb - 1), line,
                             "qubit index");
}

/** Splits on commas at top level (no nesting in this dialect). */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::string current;
    for (char ch : s) {
        if (ch == ',') {
            parts.push_back(current);
            current.clear();
        } else {
            current += ch;
        }
    }
    parts.push_back(current);
    return parts;
}

} // namespace

Circuit
parseQasm(const std::string &text, const QasmParseOptions &options)
{
    QAOA_CHECK(options.max_qubits >= 1,
               "QasmParseOptions::max_qubits must be >= 1");
    std::istringstream in(text);
    std::string raw_line;
    int line_no = 0;
    bool header_seen = false;
    int num_qubits = -1;
    std::string qreg_name = "q";
    Circuit circuit(0);

    auto checkQubit = [&](int q) {
        QAOA_CHECK(q >= 0 && q < num_qubits,
                   "line " << line_no << ": qubit index " << q
                           << " outside qreg of size " << num_qubits);
        return q;
    };

    while (std::getline(in, raw_line)) {
        ++line_no;
        std::string line = raw_line;
        std::size_t comment = line.find("//");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = text::trim(line);
        if (line.empty())
            continue;

        if (line.rfind("OPENQASM", 0) == 0) {
            QAOA_CHECK(line.find("2.0") != std::string::npos,
                       "line " << line_no
                               << ": only OPENQASM 2.0 supported");
            header_seen = true;
            continue;
        }
        if (line.rfind("include", 0) == 0)
            continue;
        QAOA_CHECK(header_seen,
                   "line " << line_no << ": missing OPENQASM header");
        QAOA_CHECK(line.back() == ';',
                   "line " << line_no << ": missing ';'");
        line.pop_back();
        line = text::trim(line);

        if (line.rfind("qreg", 0) == 0) {
            std::size_t lb = line.find('['), rb = line.find(']');
            QAOA_CHECK(lb != std::string::npos && rb != std::string::npos,
                       "line " << line_no << ": bad qreg");
            qreg_name = text::trim(line.substr(4, lb - 4));
            num_qubits = parseIndexChecked(
                line.substr(lb + 1, rb - lb - 1), line_no, "qreg size");
            QAOA_CHECK(num_qubits >= 1,
                       "line " << line_no << ": empty qreg");
            QAOA_CHECK(num_qubits <= options.max_qubits,
                       "line " << line_no << ": qreg declares "
                               << num_qubits
                               << " qubits, exceeding the limit of "
                               << options.max_qubits
                               << " (QasmParseOptions::max_qubits)");
            circuit = Circuit(num_qubits);
            continue;
        }
        if (line.rfind("creg", 0) == 0)
            continue;
        QAOA_CHECK(num_qubits >= 1,
                   "line " << line_no << ": statement before qreg");

        if (line.rfind("barrier", 0) == 0) {
            circuit.add(Gate::barrier());
            continue;
        }
        if (line.rfind("measure", 0) == 0) {
            std::size_t arrow = line.find("->");
            QAOA_CHECK(arrow != std::string::npos,
                       "line " << line_no << ": measure needs '->'");
            int q = checkQubit(parseOperand(line.substr(7, arrow - 7),
                                            qreg_name, line_no));
            std::string target = text::trim(line.substr(arrow + 2));
            std::size_t lb = target.find('['), rb = target.find(']');
            QAOA_CHECK(lb != std::string::npos && rb != std::string::npos,
                       "line " << line_no << ": bad classical target");
            int cb = parseIndexChecked(target.substr(lb + 1, rb - lb - 1),
                                       line_no, "classical index");
            circuit.add(Gate::measure(q, cb));
            continue;
        }

        // General gate: name [ '(' params ')' ] operands.
        std::size_t name_end = 0;
        while (name_end < line.size() &&
               (std::isalnum(line[name_end]) || line[name_end] == '_'))
            ++name_end;
        std::string name = line.substr(0, name_end);
        std::string rest = text::trim(line.substr(name_end));

        std::vector<double> params;
        if (!rest.empty() && rest.front() == '(') {
            std::size_t close = rest.find(')');
            QAOA_CHECK(close != std::string::npos,
                       "line " << line_no << ": unbalanced '('");
            for (const std::string &p :
                 splitCommas(rest.substr(1, close - 1)))
                params.push_back(evalAngle(p, line_no));
            rest = text::trim(rest.substr(close + 1));
        }
        std::vector<int> qubits;
        for (const std::string &tok : splitCommas(rest))
            qubits.push_back(
                checkQubit(parseOperand(tok, qreg_name, line_no)));

        auto need = [&](std::size_t nq, std::size_t np) {
            QAOA_CHECK(qubits.size() == nq && params.size() == np,
                       "line " << line_no << ": '" << name
                               << "' expects " << nq << " qubits / "
                               << np << " params");
        };
        if (name == "h") {
            need(1, 0);
            circuit.add(Gate::h(qubits[0]));
        } else if (name == "x") {
            need(1, 0);
            circuit.add(Gate::x(qubits[0]));
        } else if (name == "y") {
            need(1, 0);
            circuit.add(Gate::y(qubits[0]));
        } else if (name == "z") {
            need(1, 0);
            circuit.add(Gate::z(qubits[0]));
        } else if (name == "rx") {
            need(1, 1);
            circuit.add(Gate::rx(qubits[0], params[0]));
        } else if (name == "ry") {
            need(1, 1);
            circuit.add(Gate::ry(qubits[0], params[0]));
        } else if (name == "rz") {
            need(1, 1);
            circuit.add(Gate::rz(qubits[0], params[0]));
        } else if (name == "u1") {
            need(1, 1);
            circuit.add(Gate::u1(qubits[0], params[0]));
        } else if (name == "u2") {
            need(1, 2);
            circuit.add(Gate::u2(qubits[0], params[0], params[1]));
        } else if (name == "u3") {
            need(1, 3);
            circuit.add(Gate::u3(qubits[0], params[0], params[1],
                                 params[2]));
        } else if (name == "cx") {
            need(2, 0);
            circuit.add(Gate::cnot(qubits[0], qubits[1]));
        } else if (name == "cz") {
            need(2, 0);
            circuit.add(Gate::cz(qubits[0], qubits[1]));
        } else if (name == "swap") {
            need(2, 0);
            circuit.add(Gate::swap(qubits[0], qubits[1]));
        } else {
            QAOA_CHECK(false, "line " << line_no << ": unsupported gate '"
                                      << name << "'");
        }
    }
    QAOA_CHECK(num_qubits >= 1, "no qreg declaration found");
    return circuit;
}

} // namespace qaoa::circuit
