/** @file
 * Tests for gate-commutation analysis — formalizing the paper's §I
 * premise that QAOA cost-layer CPHASEs mutually commute.
 */

#include <gtest/gtest.h>

#include "circuit/layers.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "qaoa/problem.hpp"
#include "qaoa/profile_stats.hpp"
#include "sim/commutation.hpp"
#include "test_util.hpp"

namespace qaoa::sim {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;
using circuit::layerCount;

TEST(Commutation, DisjointGatesAlwaysCommute)
{
    EXPECT_TRUE(gatesCommute(Gate::h(0), Gate::h(1)));
    EXPECT_TRUE(gatesCommute(Gate::cnot(0, 1), Gate::cnot(2, 3)));
    EXPECT_TRUE(gatesCommute(Gate::rx(0, 0.5), Gate::cphase(1, 2, 0.3)));
}

TEST(Commutation, CphasesSharingAQubitCommute)
{
    // The paper's core observation.
    EXPECT_TRUE(gatesCommute(Gate::cphase(0, 1, 0.4),
                             Gate::cphase(1, 2, 0.9)));
    EXPECT_TRUE(gatesCommute(Gate::cphase(0, 1, 0.4),
                             Gate::cphase(0, 1, 1.1)));
    EXPECT_TRUE(gatesCommute(Gate::cz(0, 1), Gate::cphase(1, 2, 0.9)));
    EXPECT_TRUE(gatesCommute(Gate::rz(1, 0.3), Gate::cphase(1, 2, 0.9)));
    EXPECT_TRUE(gatesCommute(Gate::u1(0, 0.2), Gate::z(0)));
}

TEST(Commutation, NonCommutingPairs)
{
    EXPECT_FALSE(gatesCommute(Gate::h(0), Gate::x(0)));
    EXPECT_FALSE(gatesCommute(Gate::rx(0, 0.7),
                              Gate::cphase(0, 1, 0.4)));
    EXPECT_FALSE(gatesCommute(Gate::cnot(0, 1), Gate::cnot(1, 0)));
    EXPECT_FALSE(gatesCommute(Gate::swap(0, 1), Gate::x(0)));
    EXPECT_FALSE(gatesCommute(Gate::h(0), Gate::cnot(0, 1)));
}

TEST(Commutation, NumericFallbackFindsSubtleCases)
{
    // X on the target commutes with CNOT; X on the control does not.
    EXPECT_TRUE(gatesCommute(Gate::cnot(0, 1), Gate::x(1)));
    EXPECT_FALSE(gatesCommute(Gate::cnot(0, 1), Gate::x(0)));
    // Z on the control commutes with CNOT; Z on the target does not.
    EXPECT_TRUE(gatesCommute(Gate::cnot(0, 1), Gate::z(0)));
    EXPECT_FALSE(gatesCommute(Gate::cnot(0, 1), Gate::z(1)));
    // Two CNOTs sharing only their control commute.
    EXPECT_TRUE(gatesCommute(Gate::cnot(0, 1), Gate::cnot(0, 2)));
    // Two CNOTs sharing only their target commute too.
    EXPECT_TRUE(gatesCommute(Gate::cnot(0, 2), Gate::cnot(1, 2)));
    // Control-of-one = target-of-other does not.
    EXPECT_FALSE(gatesCommute(Gate::cnot(0, 1), Gate::cnot(1, 2)));
}

TEST(Commutation, BarriersAndMeasuresPin)
{
    EXPECT_FALSE(gatesCommute(Gate::barrier(), Gate::h(0)));
    EXPECT_FALSE(gatesCommute(Gate::measure(0, 0), Gate::h(0)));
    EXPECT_TRUE(gatesCommute(Gate::measure(0, 0), Gate::h(1)));
}

TEST(Commutation, MatchesBruteForceOnRandomPairs)
{
    // Cross-check the rule-based fast paths against direct simulation.
    Rng rng(12);
    auto random_gate = [&]() {
        int a = rng.uniformInt(0, 2), b = rng.uniformInt(0, 2);
        switch (rng.uniformInt(0, 4)) {
          case 0: return Gate::h(a);
          case 1: return Gate::rz(a, 0.7);
          case 2: return Gate::cphase(a, a == b ? (b + 1) % 3 : b, 0.5);
          case 3: return Gate::cnot(a, a == b ? (b + 1) % 3 : b);
          default: return Gate::rx(a, 1.1);
        }
    };
    for (int trial = 0; trial < 30; ++trial) {
        Gate g1 = random_gate();
        Gate g2 = random_gate();
        Circuit ab(3), ba(3);
        ab.add(g1);
        ab.add(g2);
        ba.add(g2);
        ba.add(g1);
        // Exact operator equality check on a generic entangled input.
        Circuit prep(3);
        prep.add(Gate::u3(0, 0.3, 0.9, 1.7));
        prep.add(Gate::u3(1, 1.1, 0.2, 2.3));
        prep.add(Gate::u3(2, 2.0, 1.4, 0.6));
        prep.add(Gate::cnot(0, 1));
        prep.add(Gate::cnot(1, 2));
        Circuit full_ab = prep, full_ba = prep;
        full_ab.append(ab);
        full_ba.append(ba);
        sim::Statevector sa(3), sb(3);
        sa.apply(full_ab);
        sb.apply(full_ba);
        bool equal = true;
        for (std::uint64_t i = 0; i < 8; ++i) {
            if (std::abs(sa.amplitude(i) - sb.amplitude(i)) > 1e-9) {
                equal = false;
            }
        }
        // gatesCommute == true must imply state equality; the converse
        // may fail on a single state, so only check one direction.
        if (gatesCommute(g1, g2)) {
            EXPECT_TRUE(equal) << g1.toString() << " vs "
                               << g2.toString();
        }
    }
}

TEST(CommutationLayers, RecoversParallelismFromBadOrder)
{
    // Fig. 1(b)'s circ-1 order: plain ASAP needs 6 CPHASE layers, but
    // commutation-aware layering reaches the 3-layer optimum.
    Circuit c(4);
    for (auto [a, b] : {std::pair<int, int>{0, 1}, {1, 2}, {0, 2},
                        {2, 3}, {1, 3}, {0, 3}})
        c.add(Gate::cphase(a, b, 0.7));
    EXPECT_EQ(layerCount(c), 6);
    EXPECT_EQ(commutationAwareLayerCount(c), 3);
}

TEST(CommutationLayers, LayerOrderIsSemanticallyValid)
{
    Rng rng(14);
    for (int trial = 0; trial < 6; ++trial) {
        graph::Graph g = graph::erdosRenyi(5, 0.6, rng);
        if (g.numEdges() == 0)
            continue;
        Circuit c = core::buildQaoaCircuit(g, {0.8}, {0.4}, false);
        auto layers = commutationAwareLayers(c);
        Circuit reordered(c.numQubits());
        std::size_t total = 0;
        for (const auto &layer : layers)
            for (std::size_t gi : layer) {
                reordered.add(c.gates()[gi]);
                ++total;
            }
        ASSERT_EQ(total, c.gates().size());
        EXPECT_TRUE(testutil::equivalentUpToGlobalPhase(c, reordered));
    }
}

TEST(CommutationLayers, NeverWorseThanPlainAsap)
{
    Rng rng(15);
    for (int trial = 0; trial < 10; ++trial) {
        graph::Graph g = graph::randomRegular(10, 4, rng);
        Circuit c(10);
        std::vector<core::ZZOp> ops = core::costOperations(g);
        rng.shuffle(ops);
        for (const auto &op : ops)
            c.add(Gate::cphase(op.a, op.b, 0.5));
        int aware = commutationAwareLayerCount(c);
        EXPECT_LE(aware, layerCount(c));
        int moq = core::maxOpsPerQubit(ops, 10);
        EXPECT_GE(aware, moq);
        EXPECT_LE(aware, 2 * moq - 1); // greedy coloring bound
    }
}

TEST(CommutationLayers, BarriersRespected)
{
    Circuit c(2);
    c.add(Gate::cphase(0, 1, 0.2));
    c.add(Gate::barrier());
    c.add(Gate::cphase(0, 1, 0.3));
    // Barrier prevents merging the two commuting CPHASEs.
    EXPECT_EQ(commutationAwareLayerCount(c), 3);
}

} // namespace
} // namespace qaoa::sim
