/** @file
 * Tests for incremental compilation (IC, §IV-C) and its variation-aware
 * variant (VIC, §IV-D).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "qaoa/incremental.hpp"
#include "qaoa/qaim.hpp"
#include "transpiler/router.hpp"
#include "verify/verifier.hpp"

namespace qaoa::core {
namespace {

using transpiler::Layout;

std::vector<ZZOp>
opsOf(const graph::Graph &g)
{
    std::vector<ZZOp> ops;
    for (const auto &e : g.edges())
        ops.push_back({e.u, e.v});
    return ops;
}

TEST(Ic, AllOperationsRoutedExactlyOnce)
{
    Rng inst_rng(44);
    hw::CouplingMap grid = hw::gridDevice(3, 4);
    for (int trial = 0; trial < 8; ++trial) {
        graph::Graph g = graph::erdosRenyi(10, 0.4, inst_rng);
        if (g.numEdges() == 0)
            continue;
        std::vector<ZZOp> ops = opsOf(g);
        IncrementalOptions opts;
        opts.seed = static_cast<std::uint64_t>(trial);
        IncrementalResult r = icCompileCostLayer(
            ops, grid, Layout::identity(10, 12), 0.7, opts);
        // Full translation validation replaces the old coupling/count
        // spot-checks: every op realized exactly once with the right
        // angle on an enabled edge, and the reported final layout equals
        // the SWAP replay.
        std::vector<verify::ZZTerm> terms;
        for (const ZZOp &op : ops)
            terms.push_back({op.a, op.b, 0.7 * op.weight});
        verify::VerifySpec spec;
        spec.map = &grid;
        spec.initial_log_to_phys = Layout::identity(10, 12).logToPhys();
        spec.expected_final = r.final_layout.logToPhys();
        spec.expected_interactions = &terms;
        spec.lift_basis = false;
        spec.lints = false;
        diag::Report report =
            verify::verifyCircuit(r.physical, spec);
        EXPECT_TRUE(report.spotless()) << report.summary();
        EXPECT_EQ(r.physical.countType(circuit::GateType::SWAP),
                  r.swap_count);
        EXPECT_GE(r.layer_count, 1);
    }
}

TEST(Ic, FinalLayoutTracksSwaps)
{
    hw::CouplingMap lin = hw::linearDevice(4);
    // Single far-apart op forces SWAPs; final layout must differ from the
    // initial and remain a valid placement.
    std::vector<ZZOp> ops{{0, 3}};
    IncrementalResult r = icCompileCostLayer(
        ops, lin, Layout::identity(4, 4), 0.5, {});
    EXPECT_GE(r.swap_count, 2);
    std::set<int> used;
    for (int l = 0; l < 4; ++l)
        EXPECT_TRUE(used.insert(r.final_layout.physicalOf(l)).second);
}

TEST(Ic, AdjacentLayerNeedsNoSwaps)
{
    hw::CouplingMap lin = hw::linearDevice(4);
    std::vector<ZZOp> ops{{0, 1}, {2, 3}};
    IncrementalResult r = icCompileCostLayer(
        ops, lin, Layout::identity(4, 4), 0.5, {});
    EXPECT_EQ(r.swap_count, 0);
    EXPECT_EQ(r.layer_count, 1);
}

TEST(Ic, PackingLimitControlsLayerCount)
{
    hw::CouplingMap lin = hw::linearDevice(6);
    std::vector<ZZOp> ops{{0, 1}, {2, 3}, {4, 5}};
    IncrementalOptions one;
    one.packing_limit = 1;
    IncrementalResult r1 = icCompileCostLayer(
        ops, lin, Layout::identity(6, 6), 0.5, one);
    EXPECT_EQ(r1.layer_count, 3);
    IncrementalResult r3 = icCompileCostLayer(
        ops, lin, Layout::identity(6, 6), 0.5, {});
    EXPECT_EQ(r3.layer_count, 1);
}

TEST(Ic, CloserOperationsRouteFirst)
{
    // Initial layout: logical i on physical i over a 5-qubit line.
    // Op (0,1) is at distance 1, op (0,4) at distance 4; the distance-1
    // op must appear in the stitched circuit before any SWAP.
    hw::CouplingMap lin = hw::linearDevice(5);
    std::vector<ZZOp> ops{{0, 4}, {0, 1}};
    IncrementalResult r = icCompileCostLayer(
        ops, lin, Layout::identity(5, 5), 0.5, {});
    const auto &gates = r.physical.gates();
    ASSERT_FALSE(gates.empty());
    EXPECT_EQ(gates[0].type, circuit::GateType::CPHASE);
    EXPECT_EQ(std::min(gates[0].q0, gates[0].q1), 0);
    EXPECT_EQ(std::max(gates[0].q0, gates[0].q1), 1);
}

TEST(Ic, GammaPropagatesToGates)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    std::vector<ZZOp> ops{{0, 1, 2.0}}; // weighted edge
    IncrementalResult r = icCompileCostLayer(
        ops, lin, Layout::identity(3, 3), 0.4, {});
    ASSERT_EQ(r.physical.gateCount(), 1);
    EXPECT_DOUBLE_EQ(r.physical.gates()[0].params[0], 0.8);
}

TEST(Vic, PrefersReliableOperationFirst)
{
    // Fig. 6(e): Op1 (q0, q1) has success 0.90, Op2 (q0, q5) has 0.82;
    // both are hop-distance 1, but VIC must schedule Op1 first because
    // its weighted distance is smaller.  (Both ops share q0, so they land
    // in different layers and the order is observable.)
    graph::Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(0, 5);
    g.addEdge(1, 2);
    g.addEdge(1, 4);
    g.addEdge(2, 3);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    hw::CouplingMap dev(std::move(g), "fig6");
    hw::CalibrationData calib(dev, 0.02);
    auto set_rate = [&](int a, int b, double cphase_rate) {
        calib.setCnotError(a, b, 1.0 - std::sqrt(cphase_rate));
    };
    set_rate(0, 1, 0.90);
    set_rate(0, 5, 0.82);
    set_rate(1, 2, 0.85);
    set_rate(1, 4, 0.81);
    set_rate(2, 3, 0.89);
    set_rate(3, 4, 0.88);
    set_rate(4, 5, 0.84);
    graph::DistanceMatrix weighted = hw::weightedDistances(dev, calib);

    std::vector<ZZOp> ops{{0, 5}, {0, 1}}; // unreliable listed first
    IncrementalOptions opts;
    opts.distances = &weighted;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        opts.seed = seed;
        IncrementalResult r = icCompileCostLayer(
            ops, dev, Layout::identity(6, 6), 0.5, opts);
        // First CPHASE in the stitched circuit is the reliable (0,1).
        const circuit::Gate *first = nullptr;
        for (const auto &gate : r.physical.gates())
            if (gate.type == circuit::GateType::CPHASE) {
                first = &gate;
                break;
            }
        ASSERT_NE(first, nullptr);
        EXPECT_EQ(std::min(first->q0, first->q1), 0);
        EXPECT_EQ(std::max(first->q0, first->q1), 1) << "seed " << seed;
    }
}

TEST(Ic, EmptyOpsYieldEmptyCircuit)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    IncrementalResult r = icCompileCostLayer(
        {}, lin, Layout::identity(3, 3), 0.5, {});
    EXPECT_EQ(r.physical.gateCount(), 0);
    EXPECT_EQ(r.layer_count, 0);
}

TEST(Ic, RejectsBadPackingLimit)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    IncrementalOptions opts;
    opts.packing_limit = 0;
    EXPECT_THROW(icCompileCostLayer({{0, 1}}, lin,
                                    Layout::identity(3, 3), 0.5, opts),
                 std::runtime_error);
}

} // namespace
} // namespace qaoa::core
