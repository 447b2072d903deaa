/** @file
 * Tests for the static analysis core: dependency DAG, timing pass, ESP
 * cost model and quality budgets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/budget.hpp"
#include "analysis/dag.hpp"
#include "analysis/esp.hpp"
#include "analysis/quality.hpp"
#include "analysis/timing.hpp"
#include "circuit/layers.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "qaoa/api.hpp"
#include "sim/success.hpp"

namespace qaoa::analysis {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;
using diag::Rule;
using diag::Severity;

/** Random hardware-shaped circuit on @p n qubits (1q + 2q + barriers). */
Circuit
randomCircuit(int n, int gates, Rng &rng)
{
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        int a = rng.uniformInt(0, n - 1);
        int b = rng.uniformInt(0, n - 1);
        switch (rng.uniformInt(0, 4)) {
          case 0: c.add(Gate::h(a)); break;
          case 1: c.add(Gate::rz(a, 0.1 + 0.1 * a)); break;
          case 2:
            if (a != b)
                c.add(Gate::cnot(a, b));
            break;
          case 3:
            if (a != b)
                c.add(Gate::cphase(a, b, 0.4));
            break;
          case 4:
            if (i % 7 == 0)
                c.add(Gate::barrier());
            break;
        }
    }
    return c;
}

TEST(CircuitDag, ChainAccessorsSkipBarriers)
{
    Circuit c(2);
    c.add(Gate::h(0));       // 0
    c.add(Gate::barrier());  // 1
    c.add(Gate::cnot(0, 1)); // 2
    c.add(Gate::rz(1, 0.3)); // 3
    CircuitDag dag(c);

    EXPECT_EQ(dag.nextOnQubit(0, 0), 2);
    EXPECT_EQ(dag.prevOnQubit(2, 0), 0);
    EXPECT_EQ(dag.prevOnQubit(2, 1), -1);
    EXPECT_EQ(dag.nextOnQubit(2, 1), 3);
    EXPECT_EQ(dag.nextOnQubit(3, 1), -1);
}

TEST(CircuitDag, BarrierIsSynchronizationNode)
{
    Circuit c(2);
    c.add(Gate::h(0));      // 0
    c.add(Gate::h(1));      // 1
    c.add(Gate::barrier()); // 2
    c.add(Gate::h(0));      // 3
    CircuitDag dag(c);

    // The barrier depends on both earlier gates; gate 3 depends on the
    // barrier, not directly on gate 0.
    std::set<int> bpreds(dag.preds(2).begin(), dag.preds(2).end());
    EXPECT_EQ(bpreds, (std::set<int>{0, 1}));
    ASSERT_EQ(dag.preds(3).size(), 1u);
    EXPECT_EQ(dag.preds(3)[0], 2);
    EXPECT_EQ(dag.layerOf(2), -1);
    EXPECT_EQ(dag.layerOf(3), 1);
}

TEST(CircuitDag, LayersMatchAsapLayersSeeded)
{
    Rng rng(301);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c = randomCircuit(6, 50, rng);
        CircuitDag dag(c);
        auto layers = circuit::asapLayers(c);
        EXPECT_EQ(dag.layerCount(), static_cast<int>(layers.size()));
        for (std::size_t li = 0; li < layers.size(); ++li)
            for (std::size_t gi : layers[li])
                EXPECT_EQ(dag.layerOf(static_cast<int>(gi)),
                          static_cast<int>(li));
    }
}

TEST(CircuitDag, EdgesAreConsistentAndAcyclicSeeded)
{
    Rng rng(302);
    Circuit c = randomCircuit(5, 60, rng);
    CircuitDag dag(c);
    const int n = static_cast<int>(c.gates().size());
    for (int gi = 0; gi < n; ++gi) {
        for (int p : dag.preds(gi)) {
            EXPECT_LT(p, gi); // program order is a topological order
            const auto &succ = dag.succs(p);
            EXPECT_NE(std::find(succ.begin(), succ.end(), gi),
                      succ.end());
        }
    }
}

TEST(CircuitDag, GatesOnPartitionTheCircuit)
{
    Rng rng(303);
    Circuit c = randomCircuit(4, 40, rng);
    CircuitDag dag(c);
    int counted = 0;
    for (int q = 0; q < 4; ++q) {
        int prev = -1;
        for (int gi : dag.gatesOn(q)) {
            const Gate &g = c.gates()[static_cast<std::size_t>(gi)];
            EXPECT_TRUE(g.q0 == q || g.q1 == q);
            EXPECT_GT(gi, prev); // program order
            prev = gi;
            counted += 1;
        }
    }
    int expected = 0;
    for (const Gate &g : c.gates()) {
        if (g.type == GateType::BARRIER)
            continue;
        expected += g.q1 >= 0 ? 2 : 1;
    }
    EXPECT_EQ(counted, expected);
}

TEST(Timing, ExactScheduleOfSerialChain)
{
    Circuit c(2);
    c.add(Gate::h(0));          // 50 ns
    c.add(Gate::cnot(0, 1));    // 300 ns
    c.add(Gate::measure(1, 0)); // 1000 ns
    TimingAnalysis t = analyzeTiming(c);

    EXPECT_DOUBLE_EQ(t.makespan_ns, 1350.0);
    EXPECT_DOUBLE_EQ(t.start_ns[1], 50.0);
    EXPECT_DOUBLE_EQ(t.finish_ns[1], 350.0);
    ASSERT_EQ(t.critical_path.size(), 3u);
    EXPECT_EQ(t.critical_path[0], 0);
    EXPECT_EQ(t.critical_path[2], 2);

    // Qubit 1 waits 50 ns for the H on qubit 0 to finish, but the window
    // starts at its own first gate, so no internal idle gap exists.
    EXPECT_DOUBLE_EQ(t.qubits[1].first_busy_ns, 50.0);
    EXPECT_DOUBLE_EQ(t.qubits[1].busy_ns, 1300.0);
    EXPECT_DOUBLE_EQ(t.qubits[1].idle_ns, 0.0);
}

TEST(Timing, VirtualGatesAreFree)
{
    Circuit c(1);
    c.add(Gate::rz(0, 0.7));
    c.add(Gate::u1(0, 0.2));
    c.add(Gate::z(0));
    EXPECT_DOUBLE_EQ(analyzeTiming(c).makespan_ns, 0.0);
}

TEST(Timing, IdleWindowBetweenBursts)
{
    // Qubit 0 acts, waits out three serial CNOTs on {1, 2}, acts again.
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    c.add(Gate::cnot(1, 2));
    c.add(Gate::cnot(2, 1));
    c.add(Gate::cnot(1, 2));
    c.add(Gate::barrier());
    c.add(Gate::h(0));
    TimingAnalysis t = analyzeTiming(c);

    bool found = false;
    for (const IdleWindow &w : t.idle_windows) {
        if (w.qubit != 0)
            continue;
        found = true;
        EXPECT_DOUBLE_EQ(w.start_ns, 50.0);
        EXPECT_DOUBLE_EQ(w.end_ns, 950.0); // barrier frontier
        EXPECT_EQ(w.before_gate, 6);
    }
    EXPECT_TRUE(found);
    EXPECT_DOUBLE_EQ(t.qubits[0].idle_ns, 900.0);
}

TEST(Timing, ExecutionTimeNsMatchesMakespanSeeded)
{
    Rng rng(304);
    for (int trial = 0; trial < 5; ++trial) {
        Circuit c = randomCircuit(5, 40, rng);
        EXPECT_DOUBLE_EQ(executionTimeNs(c), analyzeTiming(c).makespan_ns);
    }
}

TEST(Timing, LegacyDecoherenceFactorEquivalence)
{
    // decoherenceFactor == product over qubits of exp(-window / T2),
    // i.e. the analyzeTiming coherence with T1 = infinity.
    Rng rng(305);
    Circuit c = randomCircuit(5, 40, rng);
    const double t2 = 50000.0;
    TimingAnalysis t = analyzeTiming(c);
    double expected = 1.0;
    for (const QubitActivity &q : t.qubits)
        expected *= std::exp(-q.windowNs() / t2);
    EXPECT_NEAR(decoherenceFactor(c, t2), expected, 1e-12);
}

TEST(Timing, DecoherenceFactorRejectsNonPositiveT2)
{
    Circuit c(1);
    c.add(Gate::h(0));
    EXPECT_THROW(decoherenceFactor(c, 0.0), std::runtime_error);
}

TEST(Timing, CalibrationT1T2Used)
{
    hw::CouplingMap map = hw::linearDevice(2);
    hw::CalibrationData calib(map);
    calib.setT2Ns(0, 1000.0); // much shorter than the 70 us default
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::h(1));

    TimingOptions with_calib;
    with_calib.calibration = &calib;
    TimingAnalysis t = analyzeTiming(c, with_calib);
    EXPECT_NEAR(t.coherence[0], std::exp(-50.0 / 1000.0), 1e-12);
    EXPECT_NEAR(t.coherence[1], std::exp(-50.0 / 70000.0), 1e-12);
}

TEST(Esp, MatchesSimSuccessProbabilityBitForBit)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng crng(2020);
    hw::CalibrationData calib = hw::randomCalibration(tokyo, crng);
    Rng grng(77);
    graph::Graph g = graph::erdosRenyi(12, 0.4, grng);

    core::QaoaCompileOptions opts;
    opts.method = core::Method::Vic;
    opts.calibration = &calib;
    transpiler::CompileResult r = core::compileQaoaMaxcut(g, tokyo, opts);
    ASSERT_TRUE(r.ok());

    EspBreakdown esp = estimateEsp(r.compiled, calib);
    EXPECT_EQ(esp.total, sim::successProbability(r.compiled, calib));
}

TEST(Esp, AttributionFactorsMultiplyBackToTotal)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng crng(2021);
    hw::CalibrationData calib = hw::randomCalibration(tokyo, crng);
    Rng grng(78);
    graph::Graph g = graph::randomRegular(14, 3, grng);

    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.calibration = &calib;
    transpiler::CompileResult r = core::compileQaoaMaxcut(g, tokyo, opts);
    ASSERT_TRUE(r.ok());
    EspBreakdown esp = estimateEsp(r.physical, calib);

    EXPECT_NEAR(esp.total, esp.one_qubit * esp.two_qubit * esp.readout,
                1e-12);
    double per_qubit = 1.0;
    for (double f : esp.per_qubit)
        per_qubit *= f;
    EXPECT_NEAR(esp.total, per_qubit, 1e-9);
    EXPECT_GT(esp.two_qubit_gates, 0);
    EXPECT_EQ(esp.measurements, 14);
}

TEST(Esp, VirtualGatesAreFree)
{
    hw::CouplingMap map = hw::linearDevice(2);
    hw::CalibrationData calib(map);
    Circuit c(2);
    c.add(Gate::u1(0, 0.3));
    c.add(Gate::rz(1, 0.2));
    c.add(Gate::barrier());
    EspBreakdown esp = estimateEsp(c, calib);
    // U1 and BARRIER carry no error; RZ costs the 1q rate.
    EXPECT_DOUBLE_EQ(esp.total, 1.0 - calib.oneQubitError(1));
    EXPECT_EQ(esp.one_qubit_gates, 1);
}

TEST(Budget, ParseAndCheck)
{
    QualityBudget b = parseBudget(
        "{\"name\": \"t\", \"max_depth\": 10, \"min_esp\": 0.5}");
    EXPECT_EQ(b.name, "t");
    EXPECT_DOUBLE_EQ(b.max_depth, 10.0);
    EXPECT_DOUBLE_EQ(b.min_esp, 0.5);
    EXPECT_DOUBLE_EQ(b.max_gate_count, -1.0); // no bar

    QualitySummary s;
    s.depth = 12;
    s.esp = 0.6;
    const diag::Report r = checkBudget(s, b);
    EXPECT_EQ(r.count(Rule::BudgetViolation), 1); // depth only
    s.depth = 9;
    EXPECT_TRUE(checkBudget(s, b).spotless());
}

TEST(Budget, UnknownKeyThrows)
{
    EXPECT_THROW(parseBudget("{\"max_depht\": 10}"), std::runtime_error);
}

TEST(Budget, MalformedJsonThrows)
{
    EXPECT_THROW(parseBudget(""), std::runtime_error);
    EXPECT_THROW(parseBudget("{\"max_depth\": }"), std::runtime_error);
    EXPECT_THROW(parseBudget("{\"max_depth\": 1} trailing"),
                 std::runtime_error);
}

TEST(Quality, AnalyzeCircuitFillsSummary)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CalibrationData calib(tokyo, 0.02);
    Rng grng(79);
    graph::Graph g = graph::erdosRenyi(10, 0.4, grng);

    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ip;
    opts.calibration = &calib;
    opts.decompose_to_basis = false;
    transpiler::CompileResult r = core::compileQaoaMaxcut(g, tokyo, opts);
    ASSERT_TRUE(r.ok());

    QualityOptions qopts;
    qopts.lint.map = &tokyo;
    qopts.lint.calibration = &calib;
    QualityReport q = analyzeCircuit(r.physical, qopts);
    EXPECT_EQ(q.summary.depth, r.physical.depth());
    EXPECT_EQ(q.summary.gate_count, r.physical.gateCount());
    EXPECT_EQ(q.summary.swap_count,
              r.physical.countType(GateType::SWAP));
    EXPECT_GT(q.summary.execution_ns, 0.0);
    EXPECT_GT(q.summary.esp, 0.0);
    EXPECT_LE(q.summary.esp, 1.0);
    EXPECT_NEAR(q.summary.esp, q.esp.total, 0.0);
    EXPECT_GT(q.summary.coherence, 0.0);
}

TEST(Quality, CompilePipelineRecordsReport)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CalibrationData calib(tokyo, 0.02);
    Rng grng(80);
    graph::Graph g = graph::randomRegular(12, 3, grng);

    core::QaoaCompileOptions opts;
    opts.method = core::Method::Vic;
    opts.calibration = &calib;
    transpiler::CompileResult r = core::compileQaoaMaxcut(g, tokyo, opts);
    ASSERT_TRUE(r.ok());
    // checkQuality() ran inside the pipeline.
    EXPECT_GT(r.quality.summary.gate_count, 0);
    EXPECT_GT(r.quality.summary.esp, 0.0);
    EXPECT_TRUE(r.quality.clean(Severity::Warning));

    opts.analyze_quality = false;
    transpiler::CompileResult off = core::compileQaoaMaxcut(g, tokyo, opts);
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(off.quality.summary.gate_count, 0);
    EXPECT_LT(off.quality.summary.esp, 0.0); // unset
}

} // namespace
} // namespace qaoa::analysis
