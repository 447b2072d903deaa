/** @file Tests for the compile pipeline driver. */

#include <gtest/gtest.h>

#include "circuit/decompose.hpp"
#include "hardware/devices.hpp"
#include "transpiler/compiler.hpp"
#include "verify/verifier.hpp"

namespace qaoa::transpiler {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

Circuit
bellWithMeasures()
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::measure(0, 0));
    c.add(Gate::measure(1, 1));
    return c;
}

TEST(Compiler, ProducesBasisCircuitByDefault)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    const Circuit logical = bellWithMeasures();
    CompileResult r = compileCircuit(logical, lin, Layout::identity(2, 3));
    EXPECT_TRUE(circuit::isBasisCircuit(r.compiled));
    // verifyRouted subsumes the old satisfiesCoupling() spot-check: gate
    // preservation, coupling conformance and mapping replay in one pass.
    diag::Report report = verify::verifyRouted(
        logical, r.physical, lin, Layout::identity(2, 3).logToPhys(),
        r.final_layout.logToPhys());
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(r.compiled.countType(GateType::MEASURE), 2);
}

TEST(Compiler, NoDecomposeKeepsHighLevelGates)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    CompileOptions opts;
    opts.decompose_to_basis = false;
    CompileResult r = compileCircuit(bellWithMeasures(), lin,
                                     Layout::identity(2, 3), opts);
    EXPECT_EQ(r.compiled.countType(GateType::H), 1);
    EXPECT_EQ(r.compiled.countType(GateType::CNOT), 1);
}

TEST(Compiler, MeasuresMappedThroughFinalLayout)
{
    // Force routing: CNOT between the ends of a 3-qubit chain.
    hw::CouplingMap lin = hw::linearDevice(3);
    Circuit c(2);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::measure(0, 0));
    c.add(Gate::measure(1, 1));
    Layout init({0, 2}, 3); // logical 0 -> phys 0, logical 1 -> phys 2
    CompileOptions opts;
    opts.decompose_to_basis = false;
    CompileResult r = compileCircuit(c, lin, init, opts);
    // Each measure's classical bit keeps the logical index and its qubit
    // is the final physical home of that logical qubit.
    int found = 0;
    for (const Gate &g : r.compiled.gates()) {
        if (g.type != GateType::MEASURE)
            continue;
        ++found;
        EXPECT_EQ(g.q0, r.final_layout.physicalOf(g.cbit));
    }
    EXPECT_EQ(found, 2);
}

TEST(Compiler, ReportMetricsConsistent)
{
    hw::CouplingMap grid = hw::gridDevice(2, 3);
    CompileResult r = compileCircuit(bellWithMeasures(), grid,
                                     Layout::identity(2, 6));
    EXPECT_EQ(r.report.depth, r.compiled.depth());
    EXPECT_EQ(r.report.gate_count, r.compiled.gateCount());
    EXPECT_EQ(r.report.cx_count, r.compiled.countType(GateType::CNOT));
    EXPECT_GE(r.report.compile_seconds, 0.0);
}

TEST(Compiler, RejectsGateAfterMeasurement)
{
    hw::CouplingMap lin = hw::linearDevice(2);
    Circuit c(2);
    c.add(Gate::measure(0, 0));
    c.add(Gate::h(0));
    EXPECT_THROW(compileCircuit(c, lin, Layout::identity(2, 2)),
                 std::runtime_error);
}

TEST(Compiler, GateAfterMeasureOnOtherQubitIsFine)
{
    hw::CouplingMap lin = hw::linearDevice(2);
    Circuit c(2);
    c.add(Gate::measure(0, 0));
    c.add(Gate::h(1));
    c.add(Gate::measure(1, 1));
    EXPECT_NO_THROW(compileCircuit(c, lin, Layout::identity(2, 2)));
}

TEST(Compiler, SwapCountReflectsRouting)
{
    hw::CouplingMap lin = hw::linearDevice(5);
    Circuit c(2);
    c.add(Gate::cnot(0, 1));
    Layout far({0, 4}, 5);
    CompileResult r = compileCircuit(c, lin, far);
    EXPECT_GE(r.report.swap_count, 3);
    // Each SWAP contributes 3 CNOTs after decomposition, plus the gate's
    // own CNOT.
    EXPECT_EQ(r.report.cx_count, 3 * r.report.swap_count + 1);
    // The routing that produced those SWAPs must certify: same gates on
    // legal edges, replayed mapping equal to the reported one.
    diag::Report report = verify::verifyRouted(
        c, r.physical, lin, far.logToPhys(), r.final_layout.logToPhys());
    EXPECT_TRUE(report.clean()) << report.summary();
}

} // namespace
} // namespace qaoa::transpiler
