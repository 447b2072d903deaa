/** @file Tests for the common substrate: RNG, statistics, tables, and
 * the shared QV/QL diagnostics catalogue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace qaoa {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniformInt(0, 1 << 30) == b.uniformInt(0, 1 << 30))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformRealRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, NormalHasApproximateMoments)
{
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.normal(5.0, 2.0));
    EXPECT_NEAR(mean(xs), 5.0, 0.1);
    EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int> sample = rng.sampleWithoutReplacement(20, 12);
        ASSERT_EQ(sample.size(), 12u);
        std::set<int> unique(sample.begin(), sample.end());
        EXPECT_EQ(unique.size(), 12u);
        for (int v : sample) {
            EXPECT_GE(v, 0);
            EXPECT_LT(v, 20);
        }
    }
}

TEST(Rng, SampleWithoutReplacementFullPopulation)
{
    Rng rng(5);
    std::vector<int> sample = rng.sampleWithoutReplacement(8, 8);
    std::sort(sample.begin(), sample.end());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sample[static_cast<std::size_t>(i)], i);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample)
{
    Rng rng(5);
    EXPECT_THROW(rng.sampleWithoutReplacement(3, 4), std::runtime_error);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), 1.2909944487, 1e-9);
}

TEST(Stats, EmptyVectorsAreZero)
{
    std::vector<double> xs;
    EXPECT_DOUBLE_EQ(mean(xs), 0.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
    EXPECT_DOUBLE_EQ(median(xs), 0.0);
    EXPECT_DOUBLE_EQ(minOf(xs), 0.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 0.0);
}

TEST(Stats, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, MinMax)
{
    std::vector<double> xs{3.0, -1.0, 7.0};
    EXPECT_DOUBLE_EQ(minOf(xs), -1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 7.0);
}

TEST(Stats, RatioOfMeans)
{
    EXPECT_DOUBLE_EQ(ratioOfMeans({2.0, 4.0}, {4.0, 8.0}), 0.5);
    EXPECT_DOUBLE_EQ(ratioOfMeans({1.0}, {0.0}), 0.0);
}

TEST(Stats, AccumulatorMatchesBatch)
{
    Rng rng(13);
    std::vector<double> xs;
    Accumulator acc;
    for (int i = 0; i < 500; ++i) {
        double x = rng.uniformReal(-10.0, 10.0);
        xs.push_back(x);
        acc.add(x);
    }
    EXPECT_EQ(acc.count(), xs.size());
    EXPECT_NEAR(acc.mean(), mean(xs), 1e-9);
    EXPECT_NEAR(acc.stddev(), stddev(xs), 1e-9);
    EXPECT_DOUBLE_EQ(acc.min(), minOf(xs));
    EXPECT_DOUBLE_EQ(acc.max(), maxOf(xs));
}

TEST(Stats, AccumulatorEmpty)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"name", "value"});
    t.addRow({"depth", Table::num(12LL)});
    t.addRow({"ratio", Table::num(0.5, 2)});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("depth"), std::string::npos);
    EXPECT_NE(s.find("12"), std::string::npos);
    EXPECT_NE(s.find("0.50"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::runtime_error);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(7LL), "7");
}

TEST(ErrorMacros, CheckThrowsRuntime)
{
    EXPECT_THROW(QAOA_CHECK(false, "user error " << 42),
                 std::runtime_error);
    EXPECT_NO_THROW(QAOA_CHECK(true, "fine"));
}

TEST(ErrorMacros, AssertThrowsLogic)
{
    EXPECT_THROW(QAOA_ASSERT(false, "bug"), std::logic_error);
    EXPECT_NO_THROW(QAOA_ASSERT(true, "fine"));
}

TEST(Stopwatch, MeasuresElapsedTime)
{
    Stopwatch sw;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + static_cast<double>(i);
    EXPECT_GE(sw.seconds(), 0.0);
    double before = sw.seconds();
    sw.reset();
    EXPECT_LE(sw.seconds(), before + 1.0);
}


TEST(Diagnostics, CatalogueIsContiguousUniqueAndMatchesDesign)
{
    // The wire names and severities of DESIGN.md §8 (QV: all errors but
    // QV009) and §9 (the QL table's W/I/E column), in Rule order.
    constexpr diag::Severity E = diag::Severity::Error;
    constexpr diag::Severity W = diag::Severity::Warning;
    constexpr diag::Severity I = diag::Severity::Info;
    const diag::RuleInfo expected[] = {
        {"QV001", "illegal-coupling", E},
        {"QV002", "masked-qubit", E},
        {"QV003", "mapping-mismatch", E},
        {"QV004", "missing-interaction", E},
        {"QV005", "spurious-interaction", E},
        {"QV006", "wrong-angle", E},
        {"QV007", "gate-after-measure", E},
        {"QV008", "bad-angle", E},
        {"QV009", "unused-qubit", W},
        {"QV010", "non-commuting-reorder", E},
        {"QV011", "measure-mismatch", E},
        {"QV012", "operand-range", E},
        {"QV013", "unmapped-qubit", E},
        {"QL101", "mergeable-rz", W},
        {"QL102", "mergeable-cphase", W},
        {"QL103", "cancelling-cnot", W},
        {"QL104", "cancelling-swap", I},
        {"QL105", "trailing-swap", W},
        {"QL106", "redundant-hadamard", W},
        {"QL107", "zero-rotation", W},
        {"QL108", "unreliable-edge", I},
        {"QL109", "long-idle-window", I},
        {"QL110", "decoherence-exposure", I},
        {"QL111", "crosstalk-clash", W},
        {"QL112", "depth-hotspot", I},
        {"QL113", "low-parallelism", I},
        {"QL114", "swap-overhead", I},
        {"QL115", "budget-violation", E},
    };
    ASSERT_EQ(std::size(expected), diag::kRuleCount);

    std::set<std::string> ids, names;
    for (std::size_t i = 0; i < diag::kRuleCount; ++i) {
        const diag::RuleInfo &info =
            diag::ruleInfo(static_cast<diag::Rule>(i));
        // QV001-QV013, then QL101-QL115, with no gap.
        char want[8];
        if (i < 13)
            std::snprintf(want, sizeof want, "QV%03zu", i + 1);
        else
            std::snprintf(want, sizeof want, "QL%03zu", 101 + i - 13);
        EXPECT_STREQ(info.id, want);
        EXPECT_STREQ(info.id, expected[i].id);
        EXPECT_STREQ(info.name, expected[i].name) << info.id;
        EXPECT_EQ(info.severity, expected[i].severity) << info.id;
        EXPECT_TRUE(ids.insert(info.id).second) << info.id;
        EXPECT_TRUE(names.insert(info.name).second) << info.name;
    }
    // QL104 is advisory: the stock layered router emits SWAP pairs on
    // sparse devices and the peephole pass removes them.
    EXPECT_EQ(diag::ruleInfo(diag::Rule::CancellingSwap).severity, I);
}

} // namespace
} // namespace qaoa
