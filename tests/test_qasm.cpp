/** @file Tests for the OpenQASM exporter. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "circuit/qasm.hpp"
#include "circuit/qasm_parser.hpp"
#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "qaoa/api.hpp"
#include "verify/verifier.hpp"

namespace qaoa::circuit {
namespace {

TEST(Qasm, HeaderAndRegisters)
{
    Circuit c(3);
    std::string q = toQasm(c);
    EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(q.find("creg c[3];"), std::string::npos);
}

TEST(Qasm, EmitsEveryGateKind)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::x(1));
    c.add(Gate::rx(0, 0.5));
    c.add(Gate::u2(1, 0.1, 0.2));
    c.add(Gate::u3(2, 0.1, 0.2, 0.3));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cz(1, 2));
    c.add(Gate::swap(0, 2));
    c.add(Gate::barrier());
    c.add(Gate::measure(0, 0));
    std::string q = toQasm(c);
    for (const char *needle :
         {"h q[0];", "x q[1];", "rx(0.5) q[0];", "u2(0.1,0.2) q[1];",
          "u3(0.1,0.2,0.3) q[2];", "cx q[0],q[1];", "cz q[1],q[2];",
          "swap q[0],q[2];", "barrier q;", "measure q[0] -> c[0];"})
        EXPECT_NE(q.find(needle), std::string::npos) << needle;
}

TEST(Qasm, AnglesRoundTripBitExactly)
{
    // Perturb an angle in its 15th significant digit and beyond: the
    // old 12-digit writer collapsed these onto the same text.  The
    // shortest-round-trip writer must keep every variant distinct and
    // bit-exact, and write -> parse -> write must be a fixed point.
    const double base = 0.7853981633974483; // ~pi/4
    const double variants[] = {
        base,
        base + 1e-15, // 15th significant digit
        base + 1e-16,
        std::nextafter(base, 1.0), // one ulp
        1.0 / 3.0,
        -0.0,
    };
    for (const double angle : variants) {
        Circuit c(1);
        c.add(Gate::rz(0, angle));
        const std::string first = toQasm(c);
        const Circuit parsed = parseQasm(first);
        ASSERT_EQ(parsed.gates().size(), 1u);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.gates()[0].params[0]),
                  std::bit_cast<std::uint64_t>(angle))
            << "angle " << first << " lost bits in the text round trip";
        EXPECT_EQ(toQasm(parsed), first)
            << "write -> parse -> write must be a fixed point";
    }
    // The perturbed variants must not collapse onto the same text.
    Circuit a(1), b(1);
    a.add(Gate::rz(0, base));
    b.add(Gate::rz(0, base + 1e-15));
    EXPECT_NE(toQasm(a), toQasm(b));
}

TEST(Qasm, CphaseExportedAsCxRzCx)
{
    Circuit c(2);
    c.add(Gate::cphase(0, 1, 0.25));
    std::string q = toQasm(c);
    EXPECT_NE(q.find("cx q[0],q[1];\nrz(0.25) q[1];\ncx q[0],q[1];"),
              std::string::npos);
}

TEST(Qasm, LineCountMatchesGateExpansion)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::measure(0, 0));
    c.add(Gate::measure(1, 1));
    std::string q = toQasm(c);
    // 5 header lines (incl. comment) + 4 gate lines.
    int lines = 0;
    for (char ch : q)
        if (ch == '\n')
            ++lines;
    EXPECT_EQ(lines, 9);
}

TEST(Qasm, RoundTripPreservesInteractionEquivalence)
{
    // Export -> parse -> verify: the round-tripped basis circuit must
    // still realize the problem's ZZ multiset under the replayed mapping.
    // toQasm writes CPHASE as cx/rz/cx, so this leans on the verifier's
    // basis-pattern lifting and catches exporter/parser drift in either
    // direction.
    Rng inst_rng(31);
    graph::Graph problem = graph::erdosRenyi(8, 0.45, inst_rng);
    hw::CouplingMap map = hw::ibmqMelbourne15();

    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.gammas = {0.7};
    opts.betas = {0.35};
    transpiler::CompileResult r =
        core::compileQaoaMaxcut(problem, map, opts);
    ASSERT_TRUE(r.ok());

    Circuit reparsed = parseQasm(toQasm(r.compiled));
    ASSERT_EQ(reparsed.numQubits(), r.compiled.numQubits());

    std::vector<verify::ZZTerm> terms;
    for (const graph::Edge &e : problem.edges())
        terms.push_back({e.u, e.v, opts.gammas[0] * e.weight});

    verify::VerifySpec spec;
    spec.map = &map;
    spec.initial_log_to_phys = r.initial_layout.logToPhys();
    spec.expected_final = r.final_layout.logToPhys();
    spec.expected_interactions = &terms;
    spec.lift_basis = true; // see through the exported cx/rz/cx triples
    diag::Report report = verify::verifyCircuit(reparsed, spec);
    EXPECT_TRUE(report.spotless()) << report.summary();
}

TEST(Qasm, RoundTripCatchesTamperedText)
{
    // Deleting one rz line from the exported text removes a ZZ
    // interaction; the verifier must flag the reparse as dirty.
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    c.add(Gate::cphase(0, 1, 0.25));
    std::string text = toQasm(c);
    const std::string needle = "rz(0.25) q[1];\n";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.erase(at, needle.size());

    std::vector<verify::ZZTerm> terms{{0, 1, 0.25}};
    verify::VerifySpec spec;
    spec.initial_log_to_phys = {0, 1};
    spec.expected_interactions = &terms;
    spec.lift_basis = true;
    diag::Report report =
        verify::verifyCircuit(parseQasm(text), spec);
    EXPECT_FALSE(report.clean());
    // Without the rz the cx/cx pair no longer lifts: the interaction is
    // missing and the bare CNOTs are spurious entanglers.
    EXPECT_EQ(report.count(diag::Rule::MissingInteraction), 1);
    EXPECT_GE(report.count(diag::Rule::SpuriousInteraction), 1);
}

} // namespace
} // namespace qaoa::circuit
