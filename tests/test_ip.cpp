/** @file
 * Tests for Instruction Parallelization (§IV-B), including the Fig. 4
 * worked example and bin-packing invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "circuit/circuit.hpp"
#include "graph/generators.hpp"
#include "qaoa/ip.hpp"
#include "qaoa/profile_stats.hpp"
#include "verify/verifier.hpp"

namespace qaoa::core {
namespace {

/** The cost layer of @p ops as CPHASE gates in the listed order. */
circuit::Circuit
costCircuit(const std::vector<ZZOp> &ops, int n)
{
    circuit::Circuit c(n);
    for (const ZZOp &op : ops)
        c.add(circuit::Gate::cphase(op.a, op.b, 0.5 * op.weight));
    return c;
}

/**
 * Certifies @p order as a commuting reorder of @p ops via the verifier:
 * same gate multiset (QV004/QV005) and every exchanged pair commutes
 * (QV010).  Stronger than the multiset-equality spot-check it replaced.
 */
void
expectCommutingReorder(const std::vector<ZZOp> &ops,
                       const std::vector<ZZOp> &order, int n)
{
    diag::Report report;
    verify::checkReorder(costCircuit(ops, n), costCircuit(order, n),
                         report);
    EXPECT_TRUE(report.spotless()) << report.summary();
}

/** Same operation up to (a,b) orientation; weights ignored. */
bool
samePair(const ZZOp &x, const ZZOp &y)
{
    return std::minmax(x.a, x.b) == std::minmax(y.a, y.b);
}

TEST(ProfileStats, OpsPerQubitAndMoq)
{
    // Fig. 4(a,b): {(1,5), (2,3), (1,4), (2,4)}.
    std::vector<ZZOp> ops{{1, 5}, {2, 3}, {1, 4}, {2, 4}};
    std::vector<int> per = opsPerQubit(ops, 6);
    EXPECT_EQ(per[1], 2);
    EXPECT_EQ(per[2], 2);
    EXPECT_EQ(per[3], 1);
    EXPECT_EQ(per[4], 2);
    EXPECT_EQ(per[5], 1);
    EXPECT_EQ(maxOpsPerQubit(ops, 6), 2);
}

TEST(ProfileStats, OperationRanks)
{
    // Fig. 4(c): rank(1,5) = 3, rank(2,3) = 3, rank(1,4) = 4,
    // rank(2,4) = 4.
    std::vector<ZZOp> ops{{1, 5}, {2, 3}, {1, 4}, {2, 4}};
    std::vector<int> per = opsPerQubit(ops, 6);
    EXPECT_EQ(operationRank(ops[0], per), 3);
    EXPECT_EQ(operationRank(ops[1], per), 3);
    EXPECT_EQ(operationRank(ops[2], per), 4);
    EXPECT_EQ(operationRank(ops[3], per), 4);
}

TEST(Ip, Figure4ExampleReachesMoqLayers)
{
    std::vector<ZZOp> ops{{1, 5}, {2, 3}, {1, 4}, {2, 4}};
    Rng rng(17);
    IpResult r = ipOrder(ops, 6, rng);
    // Fig. 4(f): exactly MOQ = 2 layers, 2 operations each.
    ASSERT_EQ(r.layers.size(), 2u);
    EXPECT_EQ(r.layers[0].size(), 2u);
    EXPECT_EQ(r.layers[1].size(), 2u);
    expectCommutingReorder(ops, r.order, 6);

    // The two rank-4 operations share qubit 4, so they must be split
    // across the layers.
    auto layer_of = [&](const ZZOp &target) {
        for (std::size_t li = 0; li < r.layers.size(); ++li)
            for (const ZZOp &op : r.layers[li])
                if (samePair(op, target))
                    return static_cast<int>(li);
        return -1;
    };
    EXPECT_NE(layer_of({1, 4}), layer_of({2, 4}));
}

TEST(Ip, LayersHaveDisjointQubits)
{
    Rng inst_rng(5);
    for (int trial = 0; trial < 10; ++trial) {
        graph::Graph g = graph::erdosRenyi(12, 0.5, inst_rng);
        std::vector<ZZOp> ops;
        for (const auto &e : g.edges())
            ops.push_back({e.u, e.v});
        Rng rng(static_cast<std::uint64_t>(trial));
        IpResult r = ipOrder(ops, 12, rng);
        for (const auto &layer : r.layers) {
            std::set<int> used;
            for (const ZZOp &op : layer) {
                EXPECT_TRUE(used.insert(op.a).second);
                EXPECT_TRUE(used.insert(op.b).second);
            }
        }
        expectCommutingReorder(ops, r.order, 12);
    }
}

TEST(Ip, LayerCountAtLeastMoq)
{
    Rng inst_rng(6);
    for (int trial = 0; trial < 10; ++trial) {
        graph::Graph g = graph::randomRegular(12, 4, inst_rng);
        std::vector<ZZOp> ops;
        for (const auto &e : g.edges())
            ops.push_back({e.u, e.v});
        Rng rng(static_cast<std::uint64_t>(trial));
        IpResult r = ipOrder(ops, 12, rng);
        int moq = maxOpsPerQubit(ops, 12);
        EXPECT_GE(static_cast<int>(r.layers.size()), moq);
        // IP's whole point: far fewer layers than serial execution.
        EXPECT_LT(r.layers.size(), ops.size());
    }
}

TEST(Ip, PackingLimitRespected)
{
    Rng inst_rng(7);
    graph::Graph g = graph::randomRegular(16, 6, inst_rng);
    std::vector<ZZOp> ops;
    for (const auto &e : g.edges())
        ops.push_back({e.u, e.v});
    for (int limit : {1, 2, 3, 5}) {
        Rng rng(11);
        IpResult r = ipOrder(ops, 16, rng, limit);
        for (const auto &layer : r.layers)
            EXPECT_LE(static_cast<int>(layer.size()), limit);
        expectCommutingReorder(ops, r.order, 16);
    }
}

TEST(Ip, PackingLimitOneSerializes)
{
    std::vector<ZZOp> ops{{0, 1}, {2, 3}, {4, 5}};
    Rng rng(2);
    IpResult r = ipOrder(ops, 6, rng, 1);
    EXPECT_EQ(r.layers.size(), 3u);
}

TEST(Ip, EmptyInput)
{
    Rng rng(1);
    IpResult r = ipOrder({}, 4, rng);
    EXPECT_TRUE(r.layers.empty());
    EXPECT_TRUE(r.order.empty());
}

TEST(Ip, RejectsBadPackingLimit)
{
    Rng rng(1);
    EXPECT_THROW(ipOrder({{0, 1}}, 2, rng, 0), std::runtime_error);
}

TEST(Ip, HigherRankOpsComeFirstWithinRound)
{
    // With all ops placeable in round one, the flattened order follows
    // layer-major order and layer 0 starts with a maximal-rank op.
    std::vector<ZZOp> ops{{1, 5}, {2, 3}, {1, 4}, {2, 4}};
    std::vector<int> per = opsPerQubit(ops, 6);
    Rng rng(23);
    IpResult r = ipOrder(ops, 6, rng);
    ASSERT_FALSE(r.layers.empty());
    EXPECT_EQ(operationRank(r.layers[0][0], per), 4);
}

} // namespace
} // namespace qaoa::core
