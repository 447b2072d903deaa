/** @file Tests for ASAP layer partitioning. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/dag.hpp"
#include "circuit/layers.hpp"
#include "common/rng.hpp"

namespace qaoa::circuit {
namespace {

TEST(AsapLayers, EmptyCircuit)
{
    Circuit c(2);
    EXPECT_TRUE(asapLayers(c).empty());
    EXPECT_EQ(layerCount(c), 0);
}

TEST(AsapLayers, ParallelGatesShareLayer)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(2, 3));
    auto layers = asapLayers(c);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0].size(), 2u);
}

TEST(AsapLayers, SharedQubitSeparatesLayers)
{
    Circuit c(3);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(1, 2));
    auto layers = asapLayers(c);
    ASSERT_EQ(layers.size(), 2u);
}

TEST(AsapLayers, LayerCountMatchesDepth)
{
    // Without barriers, ASAP layer count equals the depth metric.
    Rng rng(21);
    for (int trial = 0; trial < 20; ++trial) {
        Circuit c(6);
        for (int i = 0; i < 30; ++i) {
            int a = rng.uniformInt(0, 5);
            int b = rng.uniformInt(0, 5);
            if (a == b)
                c.add(Gate::h(a));
            else
                c.add(Gate::cnot(a, b));
        }
        EXPECT_EQ(layerCount(c), c.depth());
    }
}

TEST(AsapLayers, QubitsDisjointWithinLayer)
{
    Rng rng(22);
    Circuit c(8);
    for (int i = 0; i < 60; ++i) {
        int a = rng.uniformInt(0, 7);
        int b = rng.uniformInt(0, 7);
        if (a != b)
            c.add(Gate::cphase(a, b, 0.3));
    }
    for (const auto &layer : asapLayers(c)) {
        std::set<int> used;
        for (std::size_t gi : layer) {
            const Gate &g = c.gates()[gi];
            EXPECT_TRUE(used.insert(g.q0).second);
            EXPECT_TRUE(used.insert(g.q1).second);
        }
    }
}

TEST(AsapLayers, EveryGateAssignedExactlyOnce)
{
    Rng rng(23);
    Circuit c(5);
    for (int i = 0; i < 25; ++i)
        c.add(Gate::h(rng.uniformInt(0, 4)));
    auto layers = asapLayers(c);
    std::set<std::size_t> seen;
    for (const auto &layer : layers)
        for (std::size_t gi : layer)
            EXPECT_TRUE(seen.insert(gi).second);
    EXPECT_EQ(seen.size(), c.gates().size());
}

TEST(AsapLayers, BarrierForcesNewLayer)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::barrier());
    c.add(Gate::h(1));
    auto layers = asapLayers(c);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0].size(), 1u);
    EXPECT_EQ(layers[1].size(), 1u);
}

TEST(AsapLayers, RespectsProgramOrderPerQubit)
{
    Circuit c(2);
    c.add(Gate::rx(0, 0.1));
    c.add(Gate::rx(0, 0.2));
    c.add(Gate::rx(0, 0.3));
    auto layers = asapLayers(c);
    ASSERT_EQ(layers.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(layers[i][0], i);
}

TEST(AsapLayers, GatesScheduleAfterTheirOperandsSeeded)
{
    // ASAP legality: every gate lands in a strictly later layer than the
    // previous gate on each of its qubits, and barriers act as a full
    // frontier (nothing after a barrier shares a layer with anything
    // before it).
    Rng rng(24);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(6);
        for (int i = 0; i < 50; ++i) {
            int a = rng.uniformInt(0, 5), b = rng.uniformInt(0, 5);
            if (i % 11 == 10)
                c.add(Gate::barrier());
            else if (a != b)
                c.add(Gate::cnot(a, b));
            else
                c.add(Gate::rx(a, 0.2));
        }
        auto layers = asapLayers(c);
        std::vector<int> layer_of(c.gates().size(), -1);
        for (std::size_t li = 0; li < layers.size(); ++li)
            for (std::size_t gi : layers[li])
                layer_of[gi] = static_cast<int>(li);

        std::vector<int> last_layer(6, -1);
        int frontier = 0;
        for (std::size_t gi = 0; gi < c.gates().size(); ++gi) {
            const Gate &g = c.gates()[gi];
            if (g.type == GateType::BARRIER) {
                for (std::size_t gj = 0; gj < gi; ++gj)
                    if (layer_of[gj] >= 0)
                        frontier = std::max(frontier, layer_of[gj] + 1);
                continue;
            }
            ASSERT_GE(layer_of[gi], 0);
            EXPECT_GE(layer_of[gi], frontier);
            EXPECT_GT(layer_of[gi], last_layer[g.q0]);
            last_layer[g.q0] = layer_of[gi];
            if (g.q1 >= 0) {
                EXPECT_GT(layer_of[gi], last_layer[g.q1]);
                last_layer[g.q1] = layer_of[gi];
            }
        }
    }
}

TEST(GateLayers, AsapLayersMatchDepthSemantics)
{
    Circuit c(3);
    c.add(Gate::h(0));          // layer 0
    c.add(Gate::h(1));          // layer 0
    c.add(Gate::cnot(0, 1));    // layer 1
    c.add(Gate::h(2));          // layer 0
    c.add(Gate::cnot(1, 2));    // layer 2
    std::vector<int> layers = gateLayers(c);
    ASSERT_EQ(layers.size(), 5u);
    EXPECT_EQ(layers[0], 0);
    EXPECT_EQ(layers[1], 0);
    EXPECT_EQ(layers[2], 1);
    EXPECT_EQ(layers[3], 0);
    EXPECT_EQ(layers[4], 2);

    // A barrier opens layer 3 for every qubit: it is reported there and
    // the idle q0 cannot move ahead of it.
    c.add(Gate::barrier());     // reported at 3, occupies no layer
    c.add(Gate::h(0));          // layer 3
    c.add(Gate::cnot(1, 2));    // layer 3
    c.add(Gate::h(1));          // layer 4
    layers = gateLayers(c);
    ASSERT_EQ(layers.size(), 9u);
    EXPECT_EQ(layers[5], 3);
    EXPECT_EQ(layers[6], 3);
    EXPECT_EQ(layers[7], 3);
    EXPECT_EQ(layers[8], 4);

    analysis::CircuitDag dag(c);
    EXPECT_EQ(c.depth(), 5);
    EXPECT_EQ(static_cast<int>(asapLayers(c).size()), c.depth());
    EXPECT_EQ(dag.layerCount(), c.depth());
    EXPECT_EQ(dag.layerOf(5), -1);
    EXPECT_EQ(dag.layerOf(6), 3);
}

TEST(AsapLayers, AgreesWithCircuitDagSeeded)
{
    // asapLayers() and the analysis CircuitDag both read gateLayers();
    // they must agree gate by gate.
    Rng rng(25);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(5);
        for (int i = 0; i < 40; ++i) {
            int a = rng.uniformInt(0, 4), b = rng.uniformInt(0, 4);
            if (i % 13 == 12)
                c.add(Gate::barrier());
            else if (a != b)
                c.add(Gate::cphase(a, b, 0.3));
            else
                c.add(Gate::h(a));
        }
        analysis::CircuitDag dag(c);
        auto layers = asapLayers(c);
        EXPECT_EQ(dag.layerCount(), static_cast<int>(layers.size()));
        for (std::size_t li = 0; li < layers.size(); ++li)
            for (std::size_t gi : layers[li])
                EXPECT_EQ(dag.layerOf(static_cast<int>(gi)),
                          static_cast<int>(li));
    }
}

} // namespace
} // namespace qaoa::circuit
