/** @file
 * Tests for the general Ising cost-Hamiltonian support (§VI
 * "Applicability beyond QAOA-MaxCut") and its canonical encodings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/qasm.hpp"
#include "common/hash.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "hardware/calibration.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ising.hpp"
#include "sim/statevector.hpp"
#include "test_util.hpp"

namespace qaoa::core {
namespace {

TEST(IsingModel, CoefficientBookkeeping)
{
    IsingModel m(3);
    m.addLinear(0, 0.5);
    m.addLinear(0, 0.25);
    m.addQuadratic(0, 2, 1.0);
    m.addQuadratic(2, 0, 0.5); // accumulates onto the same pair
    m.addOffset(2.0);
    EXPECT_DOUBLE_EQ(m.linear(0), 0.75);
    EXPECT_DOUBLE_EQ(m.linear(1), 0.0);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 2), 1.5);
    EXPECT_DOUBLE_EQ(m.quadratic(2, 0), 1.5);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(m.offset(), 2.0);
}

TEST(IsingModel, EnergyEvaluation)
{
    // E = s0 + 2 s0 s1, s = +1 for bit 0.
    IsingModel m(2);
    m.addLinear(0, 1.0);
    m.addQuadratic(0, 1, 2.0);
    EXPECT_DOUBLE_EQ(m.energy(0b00), 3.0);  // s0=+1, s1=+1
    EXPECT_DOUBLE_EQ(m.energy(0b01), -3.0); // s0=-1
    EXPECT_DOUBLE_EQ(m.energy(0b10), -1.0); // s1=-1
    EXPECT_DOUBLE_EQ(m.energy(0b11), 1.0);
}

TEST(IsingModel, GroundStateExhaustive)
{
    IsingModel m(2);
    m.addLinear(0, 1.0);
    m.addQuadratic(0, 1, 2.0);
    auto gs = m.groundState();
    EXPECT_DOUBLE_EQ(gs.energy, -3.0);
    EXPECT_EQ(gs.assignment, 0b01u);
}

TEST(IsingModel, RejectsBadArguments)
{
    IsingModel m(2);
    EXPECT_THROW(m.addLinear(2, 1.0), std::runtime_error);
    EXPECT_THROW(m.addQuadratic(0, 0, 1.0), std::runtime_error);
    EXPECT_THROW(IsingModel(-1), std::runtime_error);
}

TEST(MaxcutEncoding, GroundEnergyIsMinusMaxcut)
{
    Rng rng(42);
    for (int trial = 0; trial < 8; ++trial) {
        graph::Graph g = graph::erdosRenyi(8, 0.5, rng);
        IsingModel m = maxcutToIsing(g);
        double maxcut = graph::maxCutBruteForce(g).value;
        EXPECT_NEAR(m.groundState().energy, -maxcut, 1e-9);
        // Every assignment satisfies E = -cut.
        for (std::uint64_t a = 0; a < 256; a += 37)
            EXPECT_NEAR(m.energy(a), -graph::cutValue(g, a), 1e-9);
    }
}

TEST(PartitionEncoding, PerfectPartitionHasZeroEnergy)
{
    // {1, 2, 3}: {1,2} vs {3} — difference 0, energy 0.
    IsingModel m = partitionToIsing({1.0, 2.0, 3.0});
    auto gs = m.groundState();
    EXPECT_NEAR(gs.energy, 0.0, 1e-9);
    // Energy is the squared difference of the two subset sums.
    EXPECT_NEAR(m.energy(0b000), 36.0, 1e-9); // all on one side
}

TEST(PartitionEncoding, ImbalancedSetMinimizesDifference)
{
    IsingModel m = partitionToIsing({5.0, 3.0, 1.0});
    // Best split: {5} vs {3,1} -> diff 1 -> energy 1.
    EXPECT_NEAR(m.groundState().energy, 1.0, 1e-9);
}

TEST(VertexCoverEncoding, TriangleNeedsTwoVertices)
{
    graph::Graph tri = graph::cycleGraph(3);
    IsingModel m = vertexCoverToIsing(tri, 4.0);
    auto gs = m.groundState();
    // Ground energy = cover size (penalty term vanishes on valid
    // covers).
    EXPECT_NEAR(gs.energy, 2.0, 1e-9);
    // The assignment covers every edge: bits set = chosen vertices.
    int chosen = 0;
    for (int i = 0; i < 3; ++i)
        chosen += (gs.assignment >> i) & 1ULL;
    EXPECT_EQ(chosen, 2);
}

TEST(VertexCoverEncoding, StarIsCoveredByCenter)
{
    graph::Graph star(5);
    for (int v = 1; v < 5; ++v)
        star.addEdge(0, v);
    IsingModel m = vertexCoverToIsing(star, 3.0);
    auto gs = m.groundState();
    EXPECT_NEAR(gs.energy, 1.0, 1e-9);
    EXPECT_EQ(gs.assignment, 1ULL); // only the hub selected
}

TEST(VertexCoverEncoding, RejectsWeakPenalty)
{
    EXPECT_THROW(vertexCoverToIsing(graph::cycleGraph(3), 1.0),
                 std::runtime_error);
}

TEST(IsingCircuit, MatchesMaxcutBuilderOnGraphs)
{
    // The Ising route and the direct MaxCut builder must produce the
    // same output state for the same (gamma, beta).
    Rng rng(7);
    graph::Graph g = graph::erdosRenyi(5, 0.6, rng);
    IsingModel m = maxcutToIsing(g);
    circuit::Circuit a = buildQaoaCircuit(m.cost(), {0.7}, {0.3}, false);
    circuit::Circuit b = buildQaoaCircuit(g, {0.7}, {0.3}, false);
    EXPECT_TRUE(testutil::equivalentUpToGlobalPhase(a, b));
}

TEST(IsingCircuit, BuilderQasmPinned)
{
    // Pins the exact gate stream (order, operands and angle bits) the
    // builder emits for a field-free, a field-carrying and a dense Ising
    // model, in natural and reversed coupling order.
    Rng rng(2024);
    graph::Graph g = graph::erdosRenyi(7, 0.5, rng);
    const IsingModel models[] = {maxcutToIsing(g),
                                 vertexCoverToIsing(g, 2.5),
                                 partitionToIsing({3.0, 1.0, 4.0, 1.5})};
    Fnv1a h;
    for (const IsingModel &m : models) {
        CostHamiltonian cost = m.cost();
        h.str(circuit::toQasm(buildQaoaCircuit(cost, {0.7}, {0.35})));
        std::reverse(cost.zz.begin(), cost.zz.end());
        h.str(circuit::toQasm(
            buildQaoaCircuit(cost, {0.8, 0.31}, {0.4, 0.17}, false)));
    }
    EXPECT_EQ(h.hex(), "47d3123fb30131b1");
}

TEST(IsingCircuit, LinearTermsShiftPhases)
{
    IsingModel m(1);
    m.addLinear(0, 1.0);
    circuit::Circuit c = buildQaoaCircuit(m.cost(), {0.5}, {0.0}, false);
    // H then RZ(2*0.5) then RX(0): the RZ must appear.
    int rz = 0;
    for (const auto &g : c.gates())
        if (g.type == circuit::GateType::RZ) {
            ++rz;
            EXPECT_DOUBLE_EQ(g.params[0], 1.0);
        }
    EXPECT_EQ(rz, 1);
}

TEST(IsingCompile, AllMethodsPreserveDistribution)
{
    // Vertex cover on a 4-node path: linear + quadratic terms exercise
    // the full Ising path through compilation.
    graph::Graph path = graph::pathGraph(4);
    IsingModel m = vertexCoverToIsing(path, 2.5);
    hw::CouplingMap grid = hw::gridDevice(2, 3);
    hw::CalibrationData calib(grid, 0.02);

    circuit::Circuit logical =
        buildQaoaCircuit(m.cost(), {0.6}, {0.25}, true);
    auto expected = testutil::exactClassicalDistribution(logical);

    for (Method method : {Method::Naive, Method::GreedyV, Method::Qaim,
                          Method::Ip, Method::Ic, Method::Vic}) {
        QaoaCompileOptions opts;
        opts.method = method;
        opts.calibration = &calib;
        opts.gammas = {0.6};
        opts.betas = {0.25};
        transpiler::CompileResult r = compileQaoaIsing(m, grid, opts);
        EXPECT_TRUE(transpiler::satisfiesCoupling(r.compiled, grid));
        auto actual = testutil::exactClassicalDistribution(r.compiled);
        EXPECT_LT(testutil::totalVariation(expected, actual), 1e-9)
            << methodName(method);
    }
}

TEST(IsingCompile, QaoaFindsVertexCoverGroundState)
{
    // End to end: optimize angles for the Ising expectation and check
    // the sampled mode is a valid minimum vertex cover.
    graph::Graph tri = graph::cycleGraph(3);
    IsingModel m = vertexCoverToIsing(tri, 4.0);

    auto expectation = [&](double gamma, double beta) {
        circuit::Circuit c =
            buildQaoaCircuit(m.cost(), {gamma}, {beta}, false);
        sim::Statevector state(3);
        state.apply(c);
        std::vector<double> probs = state.probabilities();
        double e = 0.0;
        for (std::size_t a = 0; a < probs.size(); ++a)
            e += probs[a] * m.energy(a);
        return e;
    };
    // Coarse sweep is enough to find an improving angle pair.
    double best = expectation(0.0, 0.0);
    double uniform = best;
    for (double gamma = 0.1; gamma < 1.6; gamma += 0.15)
        for (double beta = 0.1; beta < 1.6; beta += 0.15)
            best = std::min(best, expectation(gamma, beta));
    EXPECT_LT(best, uniform - 0.2); // QAOA improves over uniform
}

TEST(IsingCompile, MaxcutIsTheUnitAngleCaseOfIsing)
{
    // §VI: the MaxCut pipeline is the Ising pipeline on maxcutToIsing().
    // J = w/2 doubles back to w exactly, so every angle, layout and
    // report must agree bit for bit.  Weights stay non-zero: the Ising
    // model drops zero couplings, while MaxCut keeps a CPHASE(0).
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng calib_rng(2020);
    hw::CalibrationData calib = hw::randomCalibration(tokyo, calib_rng);
    Rng rng(31);
    int cases = 0;
    for (int instance = 0; instance < 20; ++instance) {
        graph::Graph er = graph::erdosRenyi(6 + instance % 7, 0.45, rng);
        graph::Graph g(er.numNodes());
        for (const graph::Edge &e : er.edges())
            g.addEdge(e.u, e.v, rng.uniformReal(0.25, 2.0));
        const IsingModel model = maxcutToIsing(g);
        for (Method method : {Method::Naive, Method::GreedyV, Method::Qaim,
                              Method::Ip, Method::Ic, Method::Vic}) {
            for (std::size_t p = 1; p <= 2; ++p) {
                QaoaCompileOptions opts;
                opts.method = method;
                opts.calibration = &calib;
                opts.seed = 100 + static_cast<std::uint64_t>(instance);
                opts.gammas.assign(p, 0.63);
                opts.betas.assign(p, 0.29);
                const transpiler::CompileResult mc =
                    compileQaoaMaxcut(g, tokyo, opts);
                const transpiler::CompileResult is =
                    compileQaoaIsing(model, tokyo, opts);
                SCOPED_TRACE(methodName(method) + " p=" +
                             std::to_string(p) + " instance " +
                             std::to_string(instance));
                ASSERT_TRUE(mc.ok());
                EXPECT_EQ(circuit::toQasm(is.compiled),
                          circuit::toQasm(mc.compiled));
                EXPECT_EQ(circuit::toQasm(is.physical),
                          circuit::toQasm(mc.physical));
                EXPECT_EQ(is.final_layout.logToPhys(),
                          mc.final_layout.logToPhys());
                EXPECT_EQ(is.quality.summary.esp, mc.quality.summary.esp);
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 240);
}

TEST(IsingCompile, RejectsBadInput)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    IsingModel tiny(1);
    QaoaCompileOptions opts;
    EXPECT_THROW(compileQaoaIsing(tiny, lin, opts), std::runtime_error);
    IsingModel big(4);
    EXPECT_THROW(compileQaoaIsing(big, lin, opts), std::runtime_error);
}

} // namespace
} // namespace qaoa::core
