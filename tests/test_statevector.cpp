/** @file Tests for the dense statevector simulator. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace qaoa::sim {
namespace {

using circuit::Circuit;
using circuit::Gate;

TEST(Statevector, InitialState)
{
    Statevector s(3);
    EXPECT_NEAR(std::abs(s.amplitude(0) - Complex{1.0, 0.0}), 0.0, 1e-15);
    for (std::uint64_t i = 1; i < 8; ++i)
        EXPECT_NEAR(std::abs(s.amplitude(i)), 0.0, 1e-15);
    EXPECT_NEAR(s.norm(), 1.0, 1e-15);
}

TEST(Statevector, HadamardSuperposition)
{
    Statevector s(1);
    s.apply(Gate::h(0));
    double inv = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(s.amplitude(0).real(), inv, 1e-12);
    EXPECT_NEAR(s.amplitude(1).real(), inv, 1e-12);
    EXPECT_NEAR(s.probabilityOfOne(0), 0.5, 1e-12);
}

TEST(Statevector, BellState)
{
    Statevector s(2);
    s.apply(Gate::h(0));
    s.apply(Gate::cnot(0, 1));
    std::vector<double> p = s.probabilities();
    EXPECT_NEAR(p[0b00], 0.5, 1e-12);
    EXPECT_NEAR(p[0b11], 0.5, 1e-12);
    EXPECT_NEAR(p[0b01], 0.0, 1e-12);
    EXPECT_NEAR(p[0b10], 0.0, 1e-12);
}

TEST(Statevector, GhzState)
{
    Statevector s(5);
    s.apply(Gate::h(0));
    for (int q = 0; q + 1 < 5; ++q)
        s.apply(Gate::cnot(q, q + 1));
    std::vector<double> p = s.probabilities();
    EXPECT_NEAR(p[0], 0.5, 1e-12);
    EXPECT_NEAR(p[31], 0.5, 1e-12);
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(Statevector, XFlipsBit)
{
    Statevector s(2);
    s.apply(Gate::x(1));
    EXPECT_NEAR(std::abs(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(Statevector, CnotControlDirectionMatters)
{
    // Control in |0>: target untouched.
    Statevector s(2);
    s.apply(Gate::x(1)); // target=1 set, control=0 clear
    s.apply(Gate::cnot(0, 1));
    EXPECT_NEAR(std::abs(s.amplitude(0b10)), 1.0, 1e-12);
    // Control set: target flips.
    Statevector t(2);
    t.apply(Gate::x(0));
    t.apply(Gate::cnot(0, 1));
    EXPECT_NEAR(std::abs(t.amplitude(0b11)), 1.0, 1e-12);
}

TEST(Statevector, SwapExchangesQubits)
{
    Statevector s(2);
    s.apply(Gate::x(0));
    s.apply(Gate::swap(0, 1));
    EXPECT_NEAR(std::abs(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(Statevector, CphaseAddsRelativePhase)
{
    constexpr double g = 0.9;
    Statevector s(2);
    s.apply(Gate::h(0));
    s.apply(Gate::h(1));
    s.apply(Gate::cphase(0, 1, g));
    // Amplitudes of |01> and |10> carry e^{ig}; |00> and |11> don't.
    Complex a00 = s.amplitude(0b00);
    Complex a01 = s.amplitude(0b01);
    EXPECT_NEAR(std::arg(a01 / a00), g, 1e-12);
    Complex a11 = s.amplitude(0b11);
    EXPECT_NEAR(std::arg(a11 / a00), 0.0, 1e-12);
}

TEST(Statevector, MeasureAndBarrierAreNoOps)
{
    Statevector s(1);
    s.apply(Gate::h(0));
    Complex before = s.amplitude(1);
    s.apply(Gate::measure(0, 0));
    s.apply(Gate::barrier());
    EXPECT_EQ(s.amplitude(1), before);
}

TEST(Statevector, NormPreservedByLongCircuits)
{
    Rng rng(3);
    Statevector s(6);
    for (int i = 0; i < 300; ++i) {
        int a = rng.uniformInt(0, 5), b = rng.uniformInt(0, 5);
        if (a == b)
            s.apply(Gate::u3(a, rng.uniformReal(0, 3), rng.uniformReal(0, 3),
                             rng.uniformReal(0, 3)));
        else
            s.apply(Gate::cphase(a, b, rng.uniformReal(0, 3)));
    }
    EXPECT_NEAR(s.norm(), 1.0, 1e-9);
}

TEST(Statevector, SamplingMatchesProbabilities)
{
    Statevector s(2);
    s.apply(Gate::h(0));
    s.apply(Gate::cnot(0, 1));
    Rng rng(17);
    Counts counts = s.sampleCounts(20000, rng);
    EXPECT_EQ(counts.count(0b01) + counts.count(0b10), 0u);
    double frac00 = static_cast<double>(counts[0b00]) / 20000.0;
    EXPECT_NEAR(frac00, 0.5, 0.02);
}

TEST(Statevector, OverlapDetectsEquality)
{
    Statevector a(2), b(2);
    a.apply(Gate::h(0));
    b.apply(Gate::h(0));
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-12);
    b.apply(Gate::x(1));
    EXPECT_LT(a.overlap(b), 0.6);
}

TEST(Statevector, OverlapIgnoresGlobalPhase)
{
    Statevector a(1), b(1);
    a.apply(Gate::rz(0, 1.0)); // e^{-i/2} on |0>
    b.apply(Gate::u1(0, 1.0)); // identity on |0>
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-12);
}

TEST(RunAndSample, MapsClassicalBits)
{
    // Prepare |1> on qubit 2, measure it into classical bit 0.
    Circuit c(3);
    c.add(Gate::x(2));
    c.add(Gate::measure(2, 0));
    Rng rng(5);
    Counts counts = runAndSample(c, 100, rng);
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, 1ULL);
    EXPECT_EQ(counts.begin()->second, 100ULL);
}

TEST(RunAndSample, UnmeasuredQubitsDropOut)
{
    Circuit c(2);
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::measure(1, 0)); // only qubit 1 measured
    Rng rng(5);
    Counts counts = runAndSample(c, 10, rng);
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, 1ULL);
}

TEST(Statevector, SpecializedKernelsMatchGenericMatrices)
{
    // Every gate with a dedicated kernel must agree with the generic
    // dense-matrix path on a nontrivial state.
    auto prepared = [] {
        Statevector s(5);
        s.apply(Gate::h(0));
        s.apply(Gate::h(2));
        s.apply(Gate::cnot(0, 1));
        s.apply(Gate::u3(3, 0.7, 0.3, 1.1));
        s.apply(Gate::cphase(2, 4, 0.4));
        return s;
    };
    std::vector<Gate> specialized = {
        Gate::z(1),          Gate::rz(2, 0.77),   Gate::u1(0, -1.3),
        Gate::x(3),          Gate::h(4),          Gate::rx(0, 2.1),
        Gate::cnot(1, 3),    Gate::swap(0, 4),    Gate::cz(2, 3),
        Gate::cphase(1, 4, -0.9)};
    for (const Gate &g : specialized) {
        Statevector via_kernel = prepared();
        via_kernel.apply(g);
        Statevector via_matrix = prepared();
        if (g.arity() == 1)
            via_matrix.applyMatrix1q(gateMatrix1q(g), g.q0);
        else
            via_matrix.applyMatrix2q(gateMatrix2q(g), g.q0, g.q1);
        for (std::uint64_t i = 0; i < 32; ++i)
            ASSERT_NEAR(std::abs(via_kernel.amplitude(i) -
                                 via_matrix.amplitude(i)),
                        0.0, 1e-12)
                << g.toString() << " index " << i;
    }
}

TEST(Statevector, SampleCountsSkipsZeroProbabilityTail)
{
    // Superposition on qubit 0 only: basis states 2..7 have exactly
    // zero probability, so the CDF is flat at its end.  Regression for
    // the upper_bound miss clamp, which used to credit such shots to
    // the zero-probability last basis state.
    Statevector s(3);
    s.apply(Gate::h(0));
    Rng rng(123);
    Counts counts = s.sampleCounts(20000, rng);
    for (const auto &[basis, count] : counts) {
        EXPECT_LE(basis, 1ULL) << "shot landed on zero-probability state "
                               << basis;
        EXPECT_GT(count, 0ULL);
    }
    // And a tail that is zero without being structurally zero: collapse
    // qubit 2 of a GHZ-like state onto 0.
    Statevector t(3);
    t.apply(Gate::h(0));
    t.apply(Gate::cnot(0, 2));
    t.collapse(2, false);
    Counts tail = t.sampleCounts(5000, rng);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail.begin()->first, 0ULL);
}

TEST(RunAndSample, NoMeasureGatesReturnsRawBasisCounts)
{
    // Bell pair with no MEASURE gates: shots must split over |00> and
    // |11>, not collapse onto classical bitstring 0.
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    Rng rng(29);
    Counts counts = runAndSample(c, 4000, rng);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_GT(counts[0b00], 0u);
    EXPECT_GT(counts[0b11], 0u);
    EXPECT_EQ(counts[0b00] + counts[0b11], 4000u);
}

/** A state with generic complex amplitudes (RY, RZ and CNOT layers). */
Statevector
genericState(int n, Rng &rng)
{
    Statevector s(n);
    for (int layer = 0; layer < 2; ++layer) {
        for (int q = 0; q < n; ++q) {
            s.apply(Gate::ry(q, rng.uniformReal(0.1, 3.0)));
            s.apply(Gate::rz(q, rng.uniformReal(0.1, 3.0)));
        }
        for (int q = 0; q + 1 < n; ++q)
            s.apply(Gate::cnot(q, q + 1));
    }
    return s;
}

std::vector<Complex>
amplitudes(const Statevector &s)
{
    std::vector<Complex> a(1ULL << s.numQubits());
    for (std::uint64_t i = 0; i < a.size(); ++i)
        a[i] = s.amplitude(i);
    return a;
}

/** Bit equality of finite values; == already equates +0 and -0. */
void
expectSameBits(const std::vector<Complex> &want, const Statevector &got,
               int q)
{
    for (std::uint64_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].real(), got.amplitude(i).real())
            << "q=" << q << " i=" << i;
        ASSERT_EQ(want[i].imag(), got.amplitude(i).imag())
            << "q=" << q << " i=" << i;
    }
}

TEST(Statevector, RealArithmeticPairKernelsKeepTheComplexBits)
{
    // The H and RX kernels run on (re, im) doubles; they must give the
    // bits of the complex-arithmetic butterflies, on registers on both
    // sides of par::kSerialCutoff.
    Rng rng(1234);
    for (int n : {5, 15}) {
        Statevector s = genericState(n, rng);
        for (int q = 0; q < n; ++q) {
            const double theta = rng.uniformReal(-6.0, 6.0);
            const double c = std::cos(theta / 2.0);
            const Complex mis{0.0, -std::sin(theta / 2.0)};
            std::vector<Complex> want = amplitudes(s);
            const std::uint64_t bit = 1ULL << q;
            for (std::uint64_t i = 0; i < want.size(); ++i) {
                if (i & bit)
                    continue;
                const Complex a0 = want[i], a1 = want[i | bit];
                want[i] = c * a0 + mis * a1;
                want[i | bit] = mis * a0 + c * a1;
            }
            s.apply(Gate::rx(q, theta));
            expectSameBits(want, s, q);

            const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
            want = amplitudes(s);
            for (std::uint64_t i = 0; i < want.size(); ++i) {
                if (i & bit)
                    continue;
                const Complex a0 = want[i], a1 = want[i | bit];
                want[i] = inv_sqrt2 * (a0 + a1);
                want[i | bit] = inv_sqrt2 * (a0 - a1);
            }
            s.apply(Gate::h(q));
            expectSameBits(want, s, q);
        }
    }
}

TEST(Statevector, UniformStateIsHadamardOnZero)
{
    Statevector h(7);
    for (int q = 0; q < 7; ++q)
        h.apply(Gate::h(q));
    Statevector u(7);
    u.apply(Gate::x(3));
    u.setUniform();
    for (std::uint64_t i = 0; i < 128; ++i)
        EXPECT_NEAR(std::abs(u.amplitude(i) - h.amplitude(i)), 0.0, 1e-15);
}

TEST(Statevector, IndexedPhasesAndDiagonalExpectation)
{
    // Phase table {1, i, -1} indexed by popcount mod 3, then the
    // expectation of the popcount.
    Rng rng(9);
    Statevector s = genericState(4, rng);
    const std::vector<Complex> before = amplitudes(s);
    DiagonalTable table;
    table.values = {0.0, 1.0, 2.0, 3.0, 4.0};
    std::vector<std::uint32_t> mod3(16);
    for (std::uint64_t z = 0; z < 16; ++z) {
        table.index.push_back(
            static_cast<std::uint32_t>(std::popcount(z)));
        mod3[z] = table.index.back() % 3;
    }
    const std::vector<Complex> phases{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}};
    s.applyIndexedPhases(mod3, phases);
    double want = 0.0;
    for (std::uint64_t z = 0; z < 16; ++z) {
        EXPECT_NEAR(std::abs(s.amplitude(z) - before[z] * phases[mod3[z]]),
                    0.0, 1e-15);
        want += std::norm(before[z]) * std::popcount(z);
    }
    EXPECT_NEAR(s.expectation(table), want, 1e-14);
    EXPECT_THROW(s.applyIndexedPhases({0, 1}, phases), std::runtime_error);
}

TEST(Statevector, RejectsBadSizes)
{
    EXPECT_THROW(Statevector(0), std::runtime_error);
    EXPECT_THROW(Statevector(27), std::runtime_error);
    Statevector s(2);
    EXPECT_THROW(s.applyMatrix1q(Matrix2{}, 2), std::runtime_error);
    EXPECT_THROW(s.applyMatrix2q(Matrix4{}, 0, 0), std::runtime_error);
}

} // namespace
} // namespace qaoa::sim
