/** @file Tests for the crosstalk sequentialization pass (§VI). */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hardware/devices.hpp"
#include "test_util.hpp"
#include "transpiler/crosstalk.hpp"

namespace qaoa::transpiler {
namespace {

using circuit::Circuit;
using circuit::Gate;

TEST(Crosstalk, CountsParallelConflicts)
{
    // Two CNOTs on couplings {0,1} and {2,3} in the same ASAP layer.
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(2, 3));
    std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}}};
    EXPECT_EQ(countCrosstalkViolations(c, pairs), 1);
    // Reversed operand order still matches (couplings are undirected).
    std::vector<CrosstalkPair> rev{{{1, 0}, {3, 2}}};
    EXPECT_EQ(countCrosstalkViolations(c, rev), 1);
}

TEST(Crosstalk, SequentialGatesDoNotConflict)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::barrier());
    c.add(Gate::cnot(2, 3));
    std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}}};
    EXPECT_EQ(countCrosstalkViolations(c, pairs), 0);
}

TEST(Crosstalk, UnrelatedCouplingsIgnored)
{
    Circuit c(6);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(4, 5));
    std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}}};
    EXPECT_EQ(countCrosstalkViolations(c, pairs), 0);
}

TEST(Crosstalk, SequentializeRemovesViolations)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(2, 3));
    std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}}};
    Circuit fixed = sequentializeCrosstalk(c, pairs);
    EXPECT_EQ(countCrosstalkViolations(fixed, pairs), 0);
    // Both gates survive; the schedule got one layer deeper.
    EXPECT_EQ(fixed.countType(circuit::GateType::CNOT), 2);
    EXPECT_EQ(fixed.depth(), 2);
}

TEST(Crosstalk, NoPairsMeansNoChangeInDepth)
{
    Rng rng(12);
    Circuit c(6);
    for (int i = 0; i < 40; ++i) {
        int a = rng.uniformInt(0, 5), b = rng.uniformInt(0, 5);
        if (a != b)
            c.add(Gate::cnot(a, b));
        else
            c.add(Gate::h(a));
    }
    Circuit fixed = sequentializeCrosstalk(c, {});
    EXPECT_EQ(fixed.depth(), c.depth());
    EXPECT_EQ(fixed.gateCount(), c.gateCount());
}

TEST(Crosstalk, SemanticsPreserved)
{
    Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
        Circuit c(5);
        for (int i = 0; i < 30; ++i) {
            int a = rng.uniformInt(0, 4), b = rng.uniformInt(0, 4);
            if (a != b)
                c.add(Gate::cphase(a, b, rng.uniformReal(0, 3)));
            else
                c.add(Gate::h(a));
        }
        std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}},
                                         {{1, 2}, {3, 4}}};
        Circuit fixed = sequentializeCrosstalk(c, pairs);
        EXPECT_EQ(countCrosstalkViolations(fixed, pairs), 0);
        EXPECT_TRUE(testutil::equivalentUpToGlobalPhase(c, fixed));
    }
}

TEST(Crosstalk, OnlyAFewCouplingsAreProne)
{
    // The Murali et al. observation baked into a test: marking a small
    // subset of a real device's couplings leaves most parallelism
    // intact — depth grows by far less than full serialization.
    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    Rng rng(14);
    Circuit c(15);
    for (int i = 0; i < 60; ++i) {
        const auto &edges = melbourne.graph().edges();
        const auto &e = edges[rng.index(edges.size())];
        c.add(Gate::cnot(e.u, e.v));
    }
    std::vector<CrosstalkPair> pairs{{{0, 1}, {1, 2}},
                                     {{13, 12}, {12, 11}}};
    Circuit fixed = sequentializeCrosstalk(c, pairs);
    EXPECT_EQ(countCrosstalkViolations(fixed, pairs), 0);
    EXPECT_LE(fixed.depth(), c.depth() * 2);
    EXPECT_LT(fixed.depth(), c.gateCount()); // not fully serialized
}

TEST(Crosstalk, CountAgreesWithAnalysisFindingsSeeded)
{
    // countCrosstalkViolations() delegates to the analysis rule engine;
    // each counted violation must surface as one located QL111 finding.
    Rng rng(15);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(6);
        for (int i = 0; i < 40; ++i) {
            int a = rng.uniformInt(0, 5), b = rng.uniformInt(0, 5);
            if (a != b)
                c.add(Gate::cnot(a, b));
            else if (i % 9 == 0)
                c.add(Gate::barrier());
        }
        std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}},
                                         {{1, 2}, {4, 5}}};
        const diag::Report clashes = analysis::findCrosstalkClashes(c, pairs);
        EXPECT_EQ(countCrosstalkViolations(c, pairs),
                  static_cast<int>(clashes.diagnostics().size()));
        for (const diag::Finding &f : clashes.diagnostics()) {
            EXPECT_EQ(f.rule, diag::Rule::CrosstalkClash);
            EXPECT_GE(f.layer, 0);
            EXPECT_GE(f.gate_index, 0);
        }
    }
}

TEST(Crosstalk, SequentializeFixesRandomCircuitsSeeded)
{
    Rng rng(16);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(6);
        for (int i = 0; i < 50; ++i) {
            int a = rng.uniformInt(0, 5), b = rng.uniformInt(0, 5);
            if (a != b)
                c.add(Gate::cnot(a, b));
        }
        std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}},
                                         {{2, 3}, {4, 5}},
                                         {{0, 1}, {4, 5}}};
        Circuit fixed = sequentializeCrosstalk(c, pairs);
        EXPECT_EQ(countCrosstalkViolations(fixed, pairs), 0);
        // The fix reschedules; it never drops or adds gates.
        EXPECT_EQ(fixed.countType(circuit::GateType::CNOT),
                  c.countType(circuit::GateType::CNOT));
    }
}

TEST(Crosstalk, MeasurementsAndBarriersSurvive)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(2, 3));
    c.add(Gate::measure(0, 0));
    std::vector<CrosstalkPair> pairs{{{0, 1}, {2, 3}}};
    Circuit fixed = sequentializeCrosstalk(c, pairs);
    EXPECT_EQ(fixed.countType(circuit::GateType::MEASURE), 1);
}

} // namespace
} // namespace qaoa::transpiler
