/**
 * @file
 * Dense statevector simulator.
 *
 * Exact simulation of the library's gate set for up to 26 qubits (the
 * evaluation needs at most 20 for ibmq_20_tokyo; the 6x6-grid studies
 * reach 24+).  This is the "qiskit simulator" stand-in used to obtain
 * the noiseless approximation ratio r0 of the ARG metric (§V-A).
 *
 * Kernels:
 *  - 1q/2q diagonal (Z/RZ/U1, CZ/CPHASE): one multiply per amplitude;
 *  - pair kernels: X (swap), H and RX (real-arithmetic butterflies);
 *  - permutations: CNOT, SWAP;
 *  - generic dense 2x2/4x4 product (Y/RY/U2/U3, explicit matrices);
 *  - indexed phase (applyIndexedPhases): amps[z] *= phases[index[z]],
 *    a whole QAOA cost layer in one sweep when the phases come from a
 *    DiagonalTable;
 *  - setUniform() and the diagonal expectation() for the same path.
 *
 * Every amplitude sweep runs through qaoa::par::parallelFor, so large
 * registers use every core (QAOA_THREADS / par::setThreadCount) while
 * results stay bit-identical to the single-threaded path.
 */

#ifndef QAOA_SIM_STATEVECTOR_HPP
#define QAOA_SIM_STATEVECTOR_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/guard.hpp"
#include "common/rng.hpp"
#include "sim/gate_matrix.hpp"

namespace qaoa::sim {

/** Counts of measured bitstrings (key = basis state index). */
using Counts = std::map<std::uint64_t, std::uint64_t>;

/**
 * A real diagonal over the basis states, stored as a per-state index
 * into its distinct values: a kernel that needs f(value) per basis
 * state evaluates f once per distinct value, not once per amplitude.
 */
struct DiagonalTable
{
    std::vector<double> values;       ///< Distinct values, ascending.
    std::vector<std::uint32_t> index; ///< Basis state -> slot in values.
};

/**
 * Dense complex statevector over n qubits.
 *
 * Qubit i is bit i of the basis-state index.  Gates are applied in place;
 * MEASURE and BARRIER gates are ignored by apply() (sampling handles
 * measurement — see sampleCounts()).
 */
class Statevector
{
  public:
    /**
     * Initializes |0...0> over @p num_qubits qubits.
     *
     * With a non-null @p guard, the allocation is first checked
     * against the guard's max_statevector_bytes limit (16 bytes per
     * amplitude) — ResourceExceededError instead of an OOM kill — and
     * apply(Circuit) polls the guard once per gate.  The guard is
     * non-owning and must outlive the statevector.
     */
    explicit Statevector(int num_qubits,
                         const run::RunGuard *guard = nullptr);

    /** Number of qubits. */
    int numQubits() const { return num_qubits_; }

    /** Amplitude of basis state @p index. */
    Complex amplitude(std::uint64_t index) const;

    /**
     * Applies one gate (unitaries only; MEASURE/BARRIER are no-ops).
     *
     * Kernel dispatch: Z/RZ/U1 -> 1q diagonal, CZ/CPHASE -> 2q
     * diagonal, X/H/RX -> dedicated pair kernels, CNOT/SWAP ->
     * permutation kernels, Y/RY/U2/U3 -> generic applyMatrix1q().
     */
    void apply(const circuit::Gate &g);

    /** Applies every gate of a circuit in order. */
    void apply(const circuit::Circuit &circuit);

    /** Resets to the uniform superposition |+...+> (H on |0...0>). */
    void setUniform();

    /**
     * amps[z] *= phases[index[z]] for every basis state z: any diagonal
     * unitary whose entries repeat, in one sweep.  @p index must hold
     * one entry per amplitude, each below phases.size().
     */
    void applyIndexedPhases(const std::vector<std::uint32_t> &index,
                            const std::vector<Complex> &phases);

    /** Σ_z |amp_z|^2 · table(z): the expectation of a diagonal
     *  observable, one ordered reduction. */
    double expectation(const DiagonalTable &table) const;

    /** Applies an explicit 2x2 unitary to qubit @p q (generic path). */
    void applyMatrix1q(const Matrix2 &m, int q);

    /** Applies an explicit 4x4 unitary (q_low = low bit, q_high = high). */
    void applyMatrix2q(const Matrix4 &m, int q_low, int q_high);

    /** Probability of each basis state (|amp|^2). */
    std::vector<double> probabilities() const;

    /** Probability that qubit @p q measures 1. */
    double probabilityOfOne(int q) const;

    /**
     * Projects qubit @p q onto the given measurement outcome and
     * renormalizes (used by trajectory noise channels).
     *
     * @throws std::runtime_error when the outcome has zero probability.
     */
    void collapse(int q, bool outcome);

    /**
     * Samples @p shots measurement outcomes of all qubits.
     *
     * Shots never land on zero-probability basis states: inverse-CDF
     * lookups that fall past the last nonzero-probability entry (a flat
     * CDF tail) are clamped to that entry, not to the raw last index.
     *
     * @return Histogram basis-state index -> count.
     */
    Counts sampleCounts(std::uint64_t shots, Rng &rng) const;

    /** Squared norm (should stay 1 within numerical error). */
    double norm() const;

    /**
     * Fidelity-style overlap |<this|other>|^2 — used by tests to compare
     * circuits up to global phase.
     */
    double overlap(const Statevector &other) const;

  private:
    /** amps[i] *= (bit set ? d1 : d0) — no amplitude pairing. */
    void applyDiag1q(int q, Complex d0, Complex d1);

    /** amps[i] *= d[high bit << 1 | low bit] — no amplitude pairing. */
    void applyDiag2q(int q_low, int q_high, Complex d00, Complex d01,
                     Complex d10, Complex d11);

    void applyXKernel(int q);
    void applyHKernel(int q);
    void applyRXKernel(int q, double theta);
    void applyCnotKernel(int control, int target);
    void applySwapKernel(int a, int b);

    int num_qubits_;
    const run::RunGuard *guard_ = nullptr; ///< Polled per gate; may be null.
    std::vector<Complex> amps_;
};

/**
 * Runs a circuit from |0...0> and samples its measured classical bits.
 *
 * Honors the MEASURE gates: classical bit `cbit` receives the outcome of
 * the measured qubit, so compiled circuits (whose measured physical
 * qubits differ from the logical indices) produce logically-indexed
 * bitstrings.  Qubits without a MEASURE gate contribute 0 bits.
 *
 * A circuit with no MEASURE gates at all returns the raw basis-state
 * counts (every qubit implicitly measured into its own index) instead
 * of collapsing every shot onto bitstring 0.
 *
 * @return Histogram over classical bitstrings.
 */
Counts runAndSample(const circuit::Circuit &circuit, std::uint64_t shots,
                    Rng &rng);

} // namespace qaoa::sim

#endif // QAOA_SIM_STATEVECTOR_HPP
