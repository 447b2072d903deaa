#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qaoa::sim {

namespace {

/** Inserts a 0 at the bit position of @p bit: enumerate pair bases by
 *  mapping k in [0, 2^{n-1}) to the k-th index with that bit clear. */
inline std::uint64_t
expandBit(std::uint64_t k, std::uint64_t bit)
{
    std::uint64_t low = k & (bit - 1);
    return ((k - low) << 1) | low;
}

/** Inserts 0s at both bit positions (masks must differ). */
inline std::uint64_t
expandTwoBits(std::uint64_t k, std::uint64_t bit_a, std::uint64_t bit_b)
{
    std::uint64_t lo = std::min(bit_a, bit_b);
    std::uint64_t hi = std::max(bit_a, bit_b);
    return expandBit(expandBit(k, lo), hi);
}

inline Complex
expi(double phi)
{
    return {std::cos(phi), std::sin(phi)};
}

/**
 * Runs pair(base) for every pair base (an index with @p bit clear; its
 * partner is base | bit) of a @p size-amplitude register, in parallel
 * chunks of the pair range.  From bit 4 up the bases come in contiguous
 * runs of at least four, walked as plain loops the compiler can
 * vectorize; below that each base is computed on its own.  Pairs are
 * independent, so every split of the range gives the same bits.
 */
template <typename Pair>
void
forEachPair(std::uint64_t size, std::uint64_t bit, const Pair &pair)
{
    par::parallelFor(0, size >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        // A local copy: stores through the amplitude pointer cannot
        // alias it, so its coefficients stay in registers.
        const Pair local = pair;
        if (bit < 4) {
            for (std::uint64_t k = kb; k < ke; ++k)
                local(expandBit(k, bit));
            return;
        }
        for (std::uint64_t k = kb; k < ke;) {
            const std::uint64_t run =
                std::min(bit - (k & (bit - 1)), ke - k);
            const std::uint64_t i = expandBit(k, bit);
            for (std::uint64_t j = i; j < i + run; ++j)
                local(j);
            k += run;
        }
    });
}

} // namespace

Statevector::Statevector(int num_qubits, const run::RunGuard *guard)
    : num_qubits_(num_qubits), guard_(guard)
{
    QAOA_CHECK(num_qubits >= 1 && num_qubits <= 26,
               "statevector supports 1..26 qubits, got " << num_qubits);
    if (guard_)
        guard_->checkAllocation("statevector",
                                sizeof(Complex) *
                                    (1ULL << num_qubits));
    amps_.assign(1ULL << num_qubits, Complex{0.0, 0.0});
    amps_[0] = Complex{1.0, 0.0};
}

Complex
Statevector::amplitude(std::uint64_t index) const
{
    QAOA_CHECK(index < amps_.size(), "basis index out of range");
    return amps_[index];
}

void
Statevector::applyMatrix1q(const Matrix2 &m, int q)
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    par::parallelFor(0, amps_.size() >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t i = expandBit(k, bit);
            std::uint64_t j = i | bit;
            Complex a0 = amps_[i];
            Complex a1 = amps_[j];
            amps_[i] = m[0] * a0 + m[1] * a1;
            amps_[j] = m[2] * a0 + m[3] * a1;
        }
    });
}

void
Statevector::applyMatrix2q(const Matrix4 &m, int q_low, int q_high)
{
    QAOA_CHECK(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                   q_high < num_qubits_ && q_low != q_high,
               "invalid two-qubit operands");
    const std::uint64_t bl = 1ULL << q_low;
    const std::uint64_t bh = 1ULL << q_high;
    par::parallelFor(0, amps_.size() >> 2,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            // Basis offsets within the 4-dim subspace, index = (high, low).
            std::uint64_t i00 = expandTwoBits(k, bl, bh);
            std::uint64_t i01 = i00 | bl;
            std::uint64_t i10 = i00 | bh;
            std::uint64_t i11 = i00 | bl | bh;
            Complex a00 = amps_[i00], a01 = amps_[i01];
            Complex a10 = amps_[i10], a11 = amps_[i11];
            amps_[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
            amps_[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
            amps_[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
            amps_[i11] =
                m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
        }
    });
}

void
Statevector::applyDiag1q(int q, Complex d0, Complex d1)
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            amps_[i] *= (i & bit) ? d1 : d0;
    });
}

void
Statevector::applyDiag2q(int q_low, int q_high, Complex d00, Complex d01,
                         Complex d10, Complex d11)
{
    QAOA_CHECK(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                   q_high < num_qubits_ && q_low != q_high,
               "invalid two-qubit operands");
    const std::uint64_t bl = 1ULL << q_low;
    const std::uint64_t bh = 1ULL << q_high;
    const Complex d[4] = {d00, d01, d10, d11};
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            unsigned sub = ((i & bh) ? 2u : 0u) | ((i & bl) ? 1u : 0u);
            amps_[i] *= d[sub];
        }
    });
}

void
Statevector::applyXKernel(int q)
{
    const std::uint64_t bit = 1ULL << q;
    par::parallelFor(0, amps_.size() >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t i = expandBit(k, bit);
            std::swap(amps_[i], amps_[i | bit]);
        }
    });
}

// The H and RX butterflies run on the interleaved (re, im) doubles:
// std::complex multiplication would route every product through the
// NaN-recovery path of the complex multiply.  Up to the sign of a zero,
// they give the bits of the complex expressions they replace
// (inv_sqrt2 * (a0 ± a1) and c * a0 + (-i s) * a1).

void
Statevector::applyHKernel(int q)
{
    const std::uint64_t bit = 1ULL << q;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    double *v = reinterpret_cast<double *>(amps_.data());
    const std::uint64_t off = 2 * bit;
    forEachPair(amps_.size(), bit, [=](std::uint64_t base) {
        const std::uint64_t i = 2 * base; // re of the base, im at i + 1
        const double r0 = v[i], i0 = v[i + 1];
        const double r1 = v[i + off], i1 = v[i + off + 1];
        v[i] = inv_sqrt2 * (r0 + r1);
        v[i + 1] = inv_sqrt2 * (i0 + i1);
        v[i + off] = inv_sqrt2 * (r0 - r1);
        v[i + off + 1] = inv_sqrt2 * (i0 - i1);
    });
}

void
Statevector::applyRXKernel(int q, double theta)
{
    // RX(θ) = [[c, -i s], [-i s, c]] with c = cos(θ/2), s = sin(θ/2).
    const std::uint64_t bit = 1ULL << q;
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    double *v = reinterpret_cast<double *>(amps_.data());
    const std::uint64_t off = 2 * bit;
    forEachPair(amps_.size(), bit, [=](std::uint64_t base) {
        const std::uint64_t i = 2 * base; // re of the base, im at i + 1
        const double r0 = v[i], i0 = v[i + 1];
        const double r1 = v[i + off], i1 = v[i + off + 1];
        v[i] = c * r0 + s * i1;
        v[i + 1] = c * i0 - s * r1;
        v[i + off] = c * r1 + s * i0;
        v[i + off + 1] = c * i1 - s * r0;
    });
}

void
Statevector::applyCnotKernel(int control, int target)
{
    const std::uint64_t bc = 1ULL << control;
    const std::uint64_t bt = 1ULL << target;
    par::parallelFor(0, amps_.size() >> 2,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t base = expandTwoBits(k, bc, bt);
            std::swap(amps_[base | bc], amps_[base | bc | bt]);
        }
    });
}

void
Statevector::applySwapKernel(int a, int b)
{
    const std::uint64_t ba = 1ULL << a;
    const std::uint64_t bb = 1ULL << b;
    par::parallelFor(0, amps_.size() >> 2,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t base = expandTwoBits(k, ba, bb);
            std::swap(amps_[base | ba], amps_[base | bb]);
        }
    });
}

void
Statevector::apply(const circuit::Gate &g)
{
    using circuit::GateType;
    switch (g.type) {
      case GateType::MEASURE:
      case GateType::BARRIER:
        return;
      // Diagonal fast paths: one multiply per amplitude, no pairing.
      case GateType::Z:
        applyDiag1q(g.q0, Complex{1.0, 0.0}, Complex{-1.0, 0.0});
        return;
      case GateType::RZ:
        applyDiag1q(g.q0, expi(-g.params[0] / 2.0), expi(g.params[0] / 2.0));
        return;
      case GateType::U1:
        applyDiag1q(g.q0, Complex{1.0, 0.0}, expi(g.params[0]));
        return;
      case GateType::CZ:
        applyDiag2q(g.q0, g.q1, Complex{1.0, 0.0}, Complex{1.0, 0.0},
                    Complex{1.0, 0.0}, Complex{-1.0, 0.0});
        return;
      case GateType::CPHASE: {
        Complex phase = expi(g.params[0]);
        applyDiag2q(g.q0, g.q1, Complex{1.0, 0.0}, phase, phase,
                    Complex{1.0, 0.0});
        return;
      }
      // Dedicated pair/permutation kernels.
      case GateType::X: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_, "qubit out of range");
        applyXKernel(g.q0);
        return;
      }
      case GateType::H: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_, "qubit out of range");
        applyHKernel(g.q0);
        return;
      }
      case GateType::RX: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_, "qubit out of range");
        applyRXKernel(g.q0, g.params[0]);
        return;
      }
      case GateType::CNOT: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_ && g.q1 >= 0 &&
                       g.q1 < num_qubits_ && g.q0 != g.q1,
                   "invalid two-qubit operands");
        applyCnotKernel(g.q0, g.q1);
        return;
      }
      case GateType::SWAP: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_ && g.q1 >= 0 &&
                       g.q1 < num_qubits_ && g.q0 != g.q1,
                   "invalid two-qubit operands");
        applySwapKernel(g.q0, g.q1);
        return;
      }
      // Generic dense-matrix fallback (Y, RY, U2, U3).
      default:
        if (g.arity() == 1) {
            applyMatrix1q(gateMatrix1q(g), g.q0);
        } else {
            // gateMatrix2q() is in |q1 q0> ordering: operand q0 is the
            // low bit.
            applyMatrix2q(gateMatrix2q(g), g.q0, g.q1);
        }
        return;
    }
}

void
Statevector::apply(const circuit::Circuit &circuit)
{
    QAOA_CHECK(circuit.numQubits() <= num_qubits_,
               "circuit register larger than statevector");
    for (const circuit::Gate &g : circuit.gates()) {
        if (guard_)
            guard_->poll("statevector circuit sweep");
        apply(g);
    }
}

void
Statevector::setUniform()
{
    const double a = 1.0 / std::sqrt(static_cast<double>(amps_.size()));
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        std::fill(amps_.begin() + static_cast<std::ptrdiff_t>(b),
                  amps_.begin() + static_cast<std::ptrdiff_t>(e),
                  Complex{a, 0.0});
    });
}

void
Statevector::applyIndexedPhases(const std::vector<std::uint32_t> &index,
                                const std::vector<Complex> &phases)
{
    QAOA_CHECK(index.size() == amps_.size(),
               "phase index has " << index.size() << " entries for "
                                  << amps_.size() << " amplitudes");
    double *v = reinterpret_cast<double *>(amps_.data());
    const double *f = reinterpret_cast<const double *>(phases.data());
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            const double *p = f + 2 * std::uint64_t{index[i]};
            const double re = v[2 * i], im = v[2 * i + 1];
            v[2 * i] = re * p[0] - im * p[1];
            v[2 * i + 1] = re * p[1] + im * p[0];
        }
    });
}

double
Statevector::expectation(const DiagonalTable &table) const
{
    QAOA_CHECK(table.index.size() == amps_.size(),
               "diagonal has " << table.index.size() << " entries for "
                               << amps_.size() << " amplitudes");
    return par::parallelReduceSum(0, amps_.size(),
                                  [&](std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            acc += std::norm(amps_[i]) * table.values[table.index[i]];
        return acc;
    });
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            probs[i] = std::norm(amps_[i]);
    });
    return probs;
}

double
Statevector::probabilityOfOne(int q) const
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    return par::parallelReduceSum(0, amps_.size(),
                                  [&](std::uint64_t b, std::uint64_t e) {
        double p = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            if (i & bit)
                p += std::norm(amps_[i]);
        return p;
    });
}

void
Statevector::collapse(int q, bool outcome)
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    // Single fused sweep: zero the discarded branch while accumulating
    // the kept probability per chunk (deterministic combine order).
    double keep = par::parallelReduceSum(0, amps_.size(),
                                         [&](std::uint64_t b,
                                             std::uint64_t e) {
        double chunk_keep = 0.0;
        for (std::uint64_t i = b; i < e; ++i) {
            bool is_one = (i & bit) != 0;
            if (is_one == outcome)
                chunk_keep += std::norm(amps_[i]);
            else
                amps_[i] = Complex{0.0, 0.0};
        }
        return chunk_keep;
    });
    QAOA_CHECK(keep > 1e-15,
               "collapse onto zero-probability outcome on q" << q);
    const double scale = 1.0 / std::sqrt(keep);
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            amps_[i] *= scale;
    });
}

Counts
Statevector::sampleCounts(std::uint64_t shots, Rng &rng) const
{
    // Inverse-CDF sampling over the cumulative distribution; O(log N) per
    // shot after an O(N) prefix pass.  The prefix sum stays serial: it is
    // a strict loop dependence and must be identical for any thread
    // count.
    std::vector<double> cdf(amps_.size());
    double acc = 0.0;
    std::size_t last_nonzero = 0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        double p = std::norm(amps_[i]);
        if (p > 0.0)
            last_nonzero = i;
        acc += p;
        cdf[i] = acc;
    }
    QAOA_CHECK(acc > 0.0, "sampling a zero statevector");
    Counts counts;
    for (std::uint64_t s = 0; s < shots; ++s) {
        double r = rng.uniformReal(0.0, acc);
        auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        std::uint64_t idx = static_cast<std::uint64_t>(
            std::distance(cdf.begin(), it));
        // A flat CDF tail (trailing zero-probability states) makes
        // upper_bound land past the last state that can actually occur;
        // clamp to it rather than to the raw last index, which would
        // credit shots to a zero-probability basis state.
        if (idx > last_nonzero)
            idx = last_nonzero;
        ++counts[idx];
    }
    return counts;
}

double
Statevector::norm() const
{
    return par::parallelReduceSum(0, amps_.size(),
                                  [&](std::uint64_t b, std::uint64_t e) {
        double n = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            n += std::norm(amps_[i]);
        return n;
    });
}

double
Statevector::overlap(const Statevector &other) const
{
    QAOA_CHECK(num_qubits_ == other.num_qubits_,
               "overlap of different-size statevectors");
    double re = par::parallelReduceSum(0, amps_.size(),
                                       [&](std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            acc += (std::conj(amps_[i]) * other.amps_[i]).real();
        return acc;
    });
    double im = par::parallelReduceSum(0, amps_.size(),
                                       [&](std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            acc += (std::conj(amps_[i]) * other.amps_[i]).imag();
        return acc;
    });
    return std::norm(Complex{re, im});
}

Counts
runAndSample(const circuit::Circuit &circuit, std::uint64_t shots, Rng &rng)
{
    Statevector state(circuit.numQubits());
    state.apply(circuit);

    // Measurement map: classical bit <- qubit.
    std::vector<std::pair<int, int>> measures; // (qubit, cbit)
    for (const circuit::Gate &g : circuit.gates())
        if (g.type == circuit::GateType::MEASURE)
            measures.emplace_back(g.q0, g.cbit);

    Counts raw = state.sampleCounts(shots, rng);
    // No MEASURE gates: return raw basis counts rather than mapping
    // every shot onto classical bitstring 0.
    if (measures.empty())
        return raw;
    Counts mapped;
    for (const auto &[basis, count] : raw) {
        std::uint64_t bits = 0;
        for (const auto &[q, c] : measures)
            if ((basis >> q) & 1ULL)
                bits |= 1ULL << c;
        mapped[bits] += count;
    }
    return mapped;
}

} // namespace qaoa::sim
