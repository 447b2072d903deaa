/** @file Tests for the peephole optimizer. */

#include <gtest/gtest.h>

#include <numbers>

#include "common/rng.hpp"
#include "transpiler/peephole.hpp"
#include "verify/verifier.hpp"
#include "test_util.hpp"

namespace qaoa::transpiler {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

TEST(Peephole, DropsZeroRotations)
{
    Circuit c(2);
    c.add(Gate::u1(0, 0.0));
    c.add(Gate::rz(1, 0.0));
    c.add(Gate::rx(0, 0.0));
    c.add(Gate::cphase(0, 1, 0.0));
    c.add(Gate::u1(0, 2.0 * std::numbers::pi)); // identity mod 2 pi
    PeepholeStats stats;
    Circuit out = peepholeOptimize(c, &stats);
    EXPECT_EQ(out.gateCount(), 0);
    EXPECT_EQ(stats.removed_gates, 5);
}

TEST(Peephole, CancelsSelfInversePairs)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::h(0));
    c.add(Gate::x(1));
    c.add(Gate::x(1));
    c.add(Gate::cnot(1, 2));
    c.add(Gate::cnot(1, 2));
    c.add(Gate::swap(0, 2));
    c.add(Gate::swap(2, 0)); // operand order irrelevant for SWAP
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.gateCount(), 0);
}

TEST(Peephole, ReversedCnotDoesNotCancel)
{
    Circuit c(2);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(1, 0));
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.gateCount(), 2);
}

TEST(Peephole, InterveningGateBlocksCancellation)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::x(0));
    c.add(Gate::h(0));
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.gateCount(), 3);
    // Intervening gate on *either* operand blocks a 2q cancel.
    Circuit d(3);
    d.add(Gate::cnot(0, 1));
    d.add(Gate::h(1));
    d.add(Gate::cnot(0, 1));
    EXPECT_EQ(peepholeOptimize(d).gateCount(), 3);
}

TEST(Peephole, BarrierBlocksRules)
{
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::barrier());
    c.add(Gate::h(0));
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.gateCount(), 2);
}

TEST(Peephole, FusesPhaseRuns)
{
    Circuit c(1);
    c.add(Gate::u1(0, 0.3));
    c.add(Gate::rz(0, 0.4));
    c.add(Gate::u1(0, 0.5));
    PeepholeStats stats;
    Circuit out = peepholeOptimize(c, &stats);
    ASSERT_EQ(out.gateCount(), 1);
    EXPECT_EQ(out.gates()[0].type, GateType::U1);
    EXPECT_NEAR(out.gates()[0].params[0], 1.2, 1e-12);
    EXPECT_EQ(stats.fused_gates, 2);
}

TEST(Peephole, FusesCphasesAndCancelsFullAngle)
{
    Circuit c(2);
    c.add(Gate::cphase(0, 1, 1.0));
    c.add(Gate::cphase(1, 0, -1.0)); // symmetric operands, sums to zero
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.gateCount(), 0);
}

TEST(Peephole, CascadingCancellation)
{
    // Removing the inner pair exposes the outer pair.
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::x(0));
    c.add(Gate::x(0));
    c.add(Gate::h(0));
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.gateCount(), 0);
}

TEST(Peephole, PreservesSemanticsOnRandomCircuits)
{
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(4);
        for (int i = 0; i < 60; ++i) {
            int a = rng.uniformInt(0, 3), b = rng.uniformInt(0, 3);
            switch (rng.uniformInt(0, 5)) {
              case 0: c.add(Gate::h(a)); break;
              case 1: c.add(Gate::x(a)); break;
              case 2: c.add(Gate::u1(a, rng.uniformReal(-1, 1))); break;
              case 3:
                if (a != b)
                    c.add(Gate::cnot(a, b));
                break;
              case 4:
                if (a != b)
                    c.add(Gate::cphase(a, b, rng.uniformReal(-2, 2)));
                break;
              default:
                c.add(Gate::rz(a, rng.uniformReal(-1, 1)));
                break;
            }
        }
        Circuit out = peepholeOptimize(c);
        EXPECT_LE(out.gateCount(), c.gateCount());
        EXPECT_TRUE(testutil::equivalentUpToGlobalPhase(c, out))
            << "trial " << trial;
    }
}

TEST(Peephole, MeasurementsUntouched)
{
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::measure(0, 0));
    Circuit out = peepholeOptimize(c);
    EXPECT_EQ(out.countType(GateType::MEASURE), 1);
    EXPECT_EQ(out.gateCount(), 2);
}

TEST(Peephole, IdempotentAtFixedPoint)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    Circuit once = peepholeOptimize(c);
    Circuit twice = peepholeOptimize(once);
    EXPECT_EQ(once.gateCount(), twice.gateCount());
}

// ---- verifier cross-checks --------------------------------------------
//
// The optimizer rewrites routed circuits right before they are declared
// done, so it is the natural place to prove the verify/ checker catches
// what a buggy rewrite would produce.  Each corruption below simulates
// one defect class and must be flagged with its specific rule ID.

/** Routed-style circuit: CPHASEs around a SWAP, measures at the end. */
Circuit
routedFixture()
{
    Circuit c(4);
    c.add(Gate::cphase(0, 1, 0.7));
    c.add(Gate::cphase(1, 2, 0.7));
    c.add(Gate::swap(0, 1));
    c.add(Gate::cphase(1, 2, 0.7)); // logical (0,2) after the SWAP
    c.add(Gate::measure(1, 0));
    c.add(Gate::measure(0, 1));
    c.add(Gate::measure(2, 2));
    return c;
}

verify::VerifySpec
fixtureSpec(const std::vector<verify::ZZTerm> &terms)
{
    verify::VerifySpec spec;
    spec.initial_log_to_phys = {0, 1, 2};
    spec.expected_final = {1, 0, 2};
    spec.expected_interactions = &terms;
    spec.lift_basis = false;
    spec.lints = false; // fixture skips the H wall on purpose
    return spec;
}

const std::vector<verify::ZZTerm> kTerms{
    {0, 1, 0.7}, {1, 2, 0.7}, {0, 2, 0.7}};

TEST(PeepholeVerify, OptimizedRoutedCircuitStaysClean)
{
    // Peephole output of a legal routed circuit must verify clean: the
    // optimizer only removes identities, never interactions.
    Circuit out = peepholeOptimize(routedFixture());
    diag::Report r =
        verify::verifyCircuit(out, fixtureSpec(kTerms));
    EXPECT_TRUE(r.clean()) << r.summary();
}

TEST(PeepholeVerify, DroppedCphaseIsFlaggedQV004)
{
    // Simulates an over-eager rewrite deleting a non-identity CPHASE.
    const Circuit src = routedFixture();
    Circuit c(4);
    bool dropped = false;
    for (const Gate &g : src.gates()) {
        if (!dropped && g.type == GateType::CPHASE) {
            dropped = true; // silently discard the first interaction
            continue;
        }
        c.add(g);
    }
    diag::Report r = verify::verifyCircuit(
        peepholeOptimize(c), fixtureSpec(kTerms));
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.count(diag::Rule::MissingInteraction), 1);
}

TEST(PeepholeVerify, WrongSwapTargetIsFlagged)
{
    // Simulates a rewrite retargeting a SWAP: the replayed permutation
    // diverges from the reported mapping and the post-SWAP CPHASE binds
    // the wrong logical pair.
    const Circuit src = routedFixture();
    Circuit c(4);
    for (const Gate &g : src.gates())
        c.add(g.type == GateType::SWAP ? Gate::swap(2, 3) : g);
    diag::Report r = verify::verifyCircuit(
        peepholeOptimize(c), fixtureSpec(kTerms));
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.count(diag::Rule::MappingMismatch), 1);
    EXPECT_GE(r.count(diag::Rule::MissingInteraction), 1);
}

TEST(PeepholeVerify, StaleMappingIsFlaggedQV003)
{
    // Simulates a pass that rewrites gates but forgets to update the
    // reported final layout (a stale-mapping miscompile).
    std::vector<verify::ZZTerm> terms = kTerms;
    verify::VerifySpec spec = fixtureSpec(terms);
    spec.expected_final = {0, 1, 2}; // pre-SWAP mapping reported as final
    diag::Report r =
        verify::verifyCircuit(peepholeOptimize(routedFixture()), spec);
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.count(diag::Rule::MappingMismatch), 2);
}

TEST(PeepholeVerify, ZeroAngleRemovalNeedsOptInTolerance)
{
    // Peephole deletes a CPHASE whose angle is an exact 2-pi multiple;
    // verification must account for that via ignore_zero_interactions.
    Circuit c(2);
    c.add(Gate::cphase(0, 1, 2.0 * std::numbers::pi));
    c.add(Gate::cphase(0, 1, 0.4));
    Circuit out = peepholeOptimize(c);

    std::vector<verify::ZZTerm> terms{
        {0, 1, 2.0 * std::numbers::pi}, {0, 1, 0.4}};
    verify::VerifySpec spec;
    spec.initial_log_to_phys = {0, 1};
    spec.expected_interactions = &terms;
    spec.lift_basis = false;
    spec.lints = false;
    diag::Report strict = verify::verifyCircuit(out, spec);
    EXPECT_FALSE(strict.clean()); // the identity CPHASE is gone

    spec.ignore_zero_interactions = true;
    diag::Report tolerant = verify::verifyCircuit(out, spec);
    EXPECT_TRUE(tolerant.clean()) << tolerant.summary();
}

} // namespace
} // namespace qaoa::transpiler
