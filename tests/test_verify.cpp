/** @file
 * Unit and negative tests for the verify/ translation validator.
 *
 * The negative suite seeds one corruption class per test (dropped
 * interaction, illegal edge, wrong mapping, non-commuting reorder, ...)
 * and asserts the checker flags it with the expected QV rule — proving
 * the verifier is not vacuous.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>

#include "circuit/decompose.hpp"
#include "hardware/devices.hpp"
#include "verify/verifier.hpp"

namespace qaoa::verify {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;
using diag::Rule;
using diag::Severity;

/**
 * Reference physical circuit on linearDevice(4): three logical qubits
 * {0,1,2} start on physical {0,1,2}; interactions ZZ(0,1), ZZ(1,2) run
 * in place, then SWAP(p0,p1) brings logical 0 next to logical 2 for
 * ZZ(0,2).  Final mapping: l0->p1, l1->p0, l2->p2.
 */
Circuit
referenceCircuit()
{
    Circuit c(4);
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    c.add(Gate::h(2));
    c.add(Gate::cphase(0, 1, 0.7));
    c.add(Gate::cphase(1, 2, 0.7));
    c.add(Gate::swap(0, 1));
    c.add(Gate::cphase(1, 2, 0.7));
    c.add(Gate::rx(1, 0.9));
    c.add(Gate::rx(0, 0.9));
    c.add(Gate::rx(2, 0.9));
    c.add(Gate::measure(1, 0));
    c.add(Gate::measure(0, 1));
    c.add(Gate::measure(2, 2));
    return c;
}

std::vector<ZZTerm>
referenceTerms()
{
    return {{0, 1, 0.7}, {1, 2, 0.7}, {0, 2, 0.7}};
}

/** Spec matching referenceCircuit() on the 4-qubit line. */
struct Fixture
{
    hw::CouplingMap map = hw::linearDevice(4);
    std::vector<ZZTerm> terms = referenceTerms();
    VerifySpec spec;

    Fixture()
    {
        spec.map = &map;
        spec.initial_log_to_phys = {0, 1, 2};
        spec.expected_final = {1, 0, 2};
        spec.expected_interactions = &terms;
        spec.lift_basis = false;
    }
};

TEST(VerifyReport, CountsAndSummary)
{
    diag::Report r;
    EXPECT_TRUE(r.clean());
    EXPECT_TRUE(r.spotless());
    EXPECT_EQ(r.summary(), "clean");

    r.add(Rule::IllegalCoupling, 3, 1, 0, 5, "bad edge");
    r.add(Rule::IllegalCoupling, "another");
    r.add(Rule::UnusedQubit, "idle");
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.countSeverity(Severity::Error), 2);
    EXPECT_EQ(r.countSeverity(Severity::Warning), 1);
    EXPECT_EQ(r.count(Rule::IllegalCoupling), 2);
    EXPECT_EQ(r.summary(), "2 errors, 1 warning (QV001 x2, QV009)");

    // Zero counts are omitted: a warnings-only report names no errors.
    diag::Report warnings;
    warnings.add(Rule::UnusedQubit, "idle");
    EXPECT_EQ(warnings.summary(), "1 warning (QV009)");
}

TEST(VerifyReport, WarningsOnlyIsCleanButNotSpotless)
{
    diag::Report r;
    r.add(Rule::UnusedQubit, "idle");
    EXPECT_TRUE(r.clean());
    EXPECT_FALSE(r.spotless());
}

TEST(VerifyReport, TableAndCsvRenderRuleIds)
{
    diag::Report r;
    r.add(Rule::MappingMismatch, -1, -1, 4, 2, "detail text");
    std::ostringstream text, csv;
    r.print(text, "verification");
    r.print(csv, "verification", /*csv=*/true);
    EXPECT_EQ(text.str(),
              "rule   name              severity  gate  layer  qubits  "
              "detail     \n"
              "-------------------------------------------------------"
              "------------\n"
              "QV003  mapping-mismatch  error     -     -      q4,q2   "
              "detail text\n"
              "verification: 1 error (QV003)\n");
    EXPECT_EQ(csv.str(),
              "rule,name,severity,gate,layer,qubits,detail\n"
              "QV003,mapping-mismatch,error,-,-,q4,q2,detail text\n"
              "verification: 1 error (QV003)\n");
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
}

TEST(Replay, TracksSwapsAndInteractions)
{
    diag::Report report;
    ReplayResult r = replayToLogical(referenceCircuit(), {0, 1, 2},
                                     /*lift_basis=*/false, report);
    EXPECT_TRUE(report.spotless());
    ASSERT_EQ(r.final_log_to_phys.size(), 3u);
    EXPECT_EQ(r.final_log_to_phys[0], 1);
    EXPECT_EQ(r.final_log_to_phys[1], 0);
    EXPECT_EQ(r.final_log_to_phys[2], 2);
    ASSERT_EQ(r.interactions.size(), 3u);
    // Third CPHASE acts on physical (1,2) after the SWAP -> logical (0,2).
    EXPECT_EQ(std::min(r.interactions[2].a, r.interactions[2].b), 0);
    EXPECT_EQ(std::max(r.interactions[2].a, r.interactions[2].b), 2);
    // SWAPs are consumed, not emitted.
    EXPECT_EQ(r.logical.countType(GateType::SWAP), 0);
}

TEST(Replay, LiftsDecomposedBasisPatterns)
{
    // decomposeToBasis turns CPHASE into CX·U1·CX and SWAP into CX·CX·CX;
    // the replay must see through both.
    Circuit basis = circuit::decomposeToBasis(referenceCircuit());
    EXPECT_EQ(basis.countType(GateType::CPHASE), 0);
    diag::Report report;
    ReplayResult r =
        replayToLogical(basis, {0, 1, 2}, /*lift_basis=*/true, report);
    EXPECT_TRUE(report.spotless());
    EXPECT_EQ(r.interactions.size(), 3u);
    EXPECT_EQ(r.final_log_to_phys, (std::vector<int>{1, 0, 2}));
    // Nothing left unlifted: no raw CNOTs in the logical view.
    EXPECT_EQ(r.logical.countType(GateType::CNOT), 0);
}

TEST(Verify, ReferenceCircuitIsSpotless)
{
    Fixture f;
    EXPECT_TRUE(verifyCircuit(referenceCircuit(), f.spec).spotless());
}

TEST(Verify, DecomposedReferenceIsSpotlessWithLifting)
{
    Fixture f;
    f.spec.lift_basis = true;
    Circuit basis = circuit::decomposeToBasis(referenceCircuit());
    EXPECT_TRUE(verifyCircuit(basis, f.spec).spotless());
}

// ---- negative suite: one corruption class per test --------------------

TEST(VerifyNegative, DroppedInteractionIsQV004)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit c(4);
    for (const Gate &g : ref.gates())
        if (!(g.type == GateType::CPHASE && g.q0 == 1 && g.q1 == 2))
            c.add(g); // drops both CPHASEs on physical (1,2)
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.count(Rule::MissingInteraction), 2);
}

TEST(VerifyNegative, ExtraInteractionIsQV005)
{
    Fixture f;
    Circuit c = referenceCircuit();
    c.add(Gate::cphase(1, 2, 0.7));
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_GE(r.count(Rule::SpuriousInteraction), 1);
}

TEST(VerifyNegative, WrongAngleIsQV006)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit c(4);
    for (const Gate &g : ref.gates()) {
        Gate copy = g;
        if (g.type == GateType::CPHASE && g.q0 == 0)
            copy.params[0] = 0.9; // ZZ(0,1) angle corrupted
        c.add(copy);
    }
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_EQ(r.count(Rule::WrongAngle), 1);
    EXPECT_EQ(r.count(Rule::MissingInteraction), 0);
}

TEST(VerifyNegative, AngleEquivalentMod2PiIsAccepted)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit c(4);
    for (const Gate &g : ref.gates()) {
        Gate copy = g;
        if (g.type == GateType::CPHASE && g.q0 == 0)
            copy.params[0] += 2.0 * std::numbers::pi;
        c.add(copy);
    }
    EXPECT_TRUE(verifyCircuit(c, f.spec).spotless());
}

TEST(VerifyNegative, IllegalCouplingIsQV001)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit bad(4);
    for (const Gate &g : ref.gates()) {
        Gate copy = g;
        // Rewrite the first CPHASE onto non-adjacent line qubits (0,2).
        if (g.type == GateType::CPHASE && g.q0 == 0 && g.q1 == 1)
            copy.q1 = 2;
        bad.add(copy);
    }
    diag::Report r = verifyCircuit(bad, f.spec);
    EXPECT_GE(r.count(Rule::IllegalCoupling), 1);
}

TEST(VerifyNegative, MaskedQubitIsQV002)
{
    Fixture f;
    std::vector<char> allowed{1, 1, 0, 1}; // physical q2 is dead
    f.spec.allowed_qubits = &allowed;
    diag::Report r = verifyCircuit(referenceCircuit(), f.spec);
    EXPECT_GE(r.count(Rule::MaskedQubit), 1);
}

TEST(VerifyNegative, StaleMappingIsQV003)
{
    Fixture f;
    f.spec.expected_final = {0, 1, 2}; // pre-SWAP (stale) mapping
    diag::Report r = verifyCircuit(referenceCircuit(), f.spec);
    EXPECT_EQ(r.count(Rule::MappingMismatch), 2); // l0 and l1 disagree
}

TEST(VerifyNegative, WrongSwapTargetIsCaught)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit c(4);
    for (const Gate &g : ref.gates()) {
        Gate copy = g;
        if (g.type == GateType::SWAP)
            copy = Gate::swap(1, 2); // router "meant" swap(0,1)
        c.add(copy);
    }
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_FALSE(r.clean());
    // The replayed mapping no longer matches the reported one, and the
    // post-SWAP CPHASE binds the wrong logical pair.
    EXPECT_GE(r.count(Rule::MappingMismatch), 1);
    EXPECT_GE(r.count(Rule::MissingInteraction), 1);
}

TEST(VerifyNegative, GateAfterMeasureIsQV007)
{
    Fixture f;
    Circuit c = referenceCircuit();
    c.add(Gate::h(1));
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_EQ(r.count(Rule::GateAfterMeasure), 1);
}

TEST(VerifyNegative, NanAngleIsQV008)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit c(4);
    for (const Gate &g : ref.gates()) {
        Gate copy = g;
        if (g.type == GateType::RX && g.q0 == 1)
            copy.params[0] = std::numeric_limits<double>::quiet_NaN();
        c.add(copy);
    }
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_EQ(r.count(Rule::BadAngle), 1);
}

TEST(VerifyNegative, UnusedMappedQubitWarnsQV009)
{
    Fixture f;
    f.spec.initial_log_to_phys = {0, 1, 2, 3}; // logical 3 on idle p3
    f.spec.expected_final = {1, 0, 2, 3};
    diag::Report r = verifyCircuit(referenceCircuit(), f.spec);
    EXPECT_TRUE(r.clean()); // warning only
    EXPECT_FALSE(r.spotless());
    EXPECT_EQ(r.count(Rule::UnusedQubit), 1);
}

TEST(VerifyNegative, MeasureConventionIsQV011)
{
    Fixture f;
    const Circuit ref = referenceCircuit();
    Circuit c(4);
    for (const Gate &g : ref.gates()) {
        Gate copy = g;
        if (g.type == GateType::MEASURE && g.cbit == 2)
            copy.cbit = 5;
        c.add(copy);
    }
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_EQ(r.count(Rule::MeasureMismatch), 1);
}

TEST(VerifyNegative, DegenerateOperandsAreQV012)
{
    Fixture f;
    Circuit c = referenceCircuit();
    Gate g = Gate::cnot(1, 2);
    g.q1 = 1; // corrupt post-construction: both operands on q1
    c.add(g);
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_GE(r.count(Rule::OperandRange), 1);
}

TEST(VerifyNegative, GateOnUnmappedQubitIsQV013)
{
    Fixture f;
    Circuit c = referenceCircuit();
    c.add(Gate::rx(3, 0.4)); // p3 holds no logical qubit
    diag::Report r = verifyCircuit(c, f.spec);
    EXPECT_EQ(r.count(Rule::UnmappedQubit), 1);
}

// ---- reorder certification (QV010) ------------------------------------

TEST(CheckReorder, CommutingCphaseReorderIsClean)
{
    Circuit ref(3);
    ref.add(Gate::cphase(0, 1, 0.5));
    ref.add(Gate::cphase(1, 2, 0.5));
    ref.add(Gate::cphase(0, 2, 0.5));
    Circuit obs(3);
    obs.add(Gate::cphase(0, 2, 0.5)); // CPHASEs all commute
    obs.add(Gate::cphase(0, 1, 0.5));
    obs.add(Gate::cphase(1, 2, 0.5));
    diag::Report r;
    checkReorder(ref, obs, r);
    EXPECT_TRUE(r.spotless());
}

TEST(CheckReorder, NonCommutingExchangeIsQV010)
{
    Circuit ref(2);
    ref.add(Gate::h(0));
    ref.add(Gate::cphase(0, 1, 0.5));
    Circuit obs(2);
    obs.add(Gate::cphase(0, 1, 0.5)); // H and CPHASE do not commute
    obs.add(Gate::h(0));
    diag::Report r;
    checkReorder(ref, obs, r);
    EXPECT_EQ(r.count(Rule::NonCommutingReorder), 1);
}

TEST(CheckReorder, MultisetMismatchSurfaces)
{
    Circuit ref(2);
    ref.add(Gate::cphase(0, 1, 0.5));
    ref.add(Gate::h(0));
    Circuit obs(2);
    obs.add(Gate::cphase(0, 1, 0.5));
    obs.add(Gate::h(1)); // wrong qubit
    diag::Report r;
    checkReorder(ref, obs, r);
    EXPECT_GE(r.count(Rule::SpuriousInteraction), 1);
    EXPECT_GE(r.count(Rule::MissingInteraction), 1);
}

TEST(CheckReorder, SymmetricOperandOrderDoesNotMatter)
{
    Circuit ref(2);
    ref.add(Gate::cphase(0, 1, 0.5));
    Circuit obs(2);
    obs.add(Gate::cphase(1, 0, 0.5));
    diag::Report r;
    checkReorder(ref, obs, r);
    EXPECT_TRUE(r.spotless());
}

} // namespace
} // namespace qaoa::verify
