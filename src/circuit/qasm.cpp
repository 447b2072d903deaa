#include "circuit/qasm.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace qaoa::circuit {

namespace {

// Shortest decimal form that parses back to the identical double: try
// 15..17 significant digits (max_digits10 == 17 always suffices for
// IEEE-754 binary64) and take the first that round-trips bit-exactly.
// Keeps common angles short ("0.5", not "0.50000000000000000") while
// guaranteeing write -> parse -> write is a fixed point.
std::string
fmt(double v)
{
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        // qe-allow(QE107): round-trip probe of text formatted just above.
        if (std::bit_cast<std::uint64_t>(std::strtod(buf, nullptr)) ==
            std::bit_cast<std::uint64_t>(v))
            break;
    }
    return buf;
}

} // namespace

std::string
toQasm(const Circuit &circuit)
{
    std::ostringstream os;
    os << "OPENQASM 2.0;\n"
       << "include \"qelib1.inc\";\n"
       << "// cphase(g) == diag(1, e^ig, e^ig, 1); exported via rz framing\n"
       << "qreg q[" << circuit.numQubits() << "];\n"
       << "creg c[" << circuit.numQubits() << "];\n";

    for (const Gate &g : circuit.gates()) {
        switch (g.type) {
          case GateType::H:
            os << "h q[" << g.q0 << "];\n";
            break;
          case GateType::X:
            os << "x q[" << g.q0 << "];\n";
            break;
          case GateType::Y:
            os << "y q[" << g.q0 << "];\n";
            break;
          case GateType::Z:
            os << "z q[" << g.q0 << "];\n";
            break;
          case GateType::RX:
            os << "rx(" << fmt(g.params[0]) << ") q[" << g.q0 << "];\n";
            break;
          case GateType::RY:
            os << "ry(" << fmt(g.params[0]) << ") q[" << g.q0 << "];\n";
            break;
          case GateType::RZ:
            os << "rz(" << fmt(g.params[0]) << ") q[" << g.q0 << "];\n";
            break;
          case GateType::U1:
            os << "u1(" << fmt(g.params[0]) << ") q[" << g.q0 << "];\n";
            break;
          case GateType::U2:
            os << "u2(" << fmt(g.params[0]) << "," << fmt(g.params[1])
               << ") q[" << g.q0 << "];\n";
            break;
          case GateType::U3:
            os << "u3(" << fmt(g.params[0]) << "," << fmt(g.params[1]) << ","
               << fmt(g.params[2]) << ") q[" << g.q0 << "];\n";
            break;
          case GateType::CNOT:
            os << "cx q[" << g.q0 << "],q[" << g.q1 << "];\n";
            break;
          case GateType::CZ:
            os << "cz q[" << g.q0 << "],q[" << g.q1 << "];\n";
            break;
          case GateType::CPHASE:
            // Exact decomposition in qelib1 terms (global phase dropped).
            os << "cx q[" << g.q0 << "],q[" << g.q1 << "];\n"
               << "rz(" << fmt(g.params[0]) << ") q[" << g.q1 << "];\n"
               << "cx q[" << g.q0 << "],q[" << g.q1 << "];\n";
            break;
          case GateType::SWAP:
            os << "swap q[" << g.q0 << "],q[" << g.q1 << "];\n";
            break;
          case GateType::MEASURE:
            os << "measure q[" << g.q0 << "] -> c[" << g.cbit << "];\n";
            break;
          case GateType::BARRIER:
            os << "barrier q;\n";
            break;
        }
    }
    return os.str();
}

} // namespace qaoa::circuit
