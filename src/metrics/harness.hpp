/**
 * @file
 * Evaluation harness shared by the figure/table benches: instance-set
 * generation (§V-B), batched compilation metrics, and noiseless QAOA
 * parameter optimization for the ARG experiments (§V-G).
 */

#ifndef QAOA_METRICS_HARNESS_HPP
#define QAOA_METRICS_HARNESS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/guard.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "hardware/coupling_map.hpp"
#include "qaoa/api.hpp"
#include "qaoa/problem.hpp"
#include "sim/statevector.hpp"

namespace qaoa::metrics {

/** Generates @p count connected Erdős–Rényi G(n, p) instances. */
std::vector<graph::Graph> erdosRenyiInstances(int n, double p, int count,
                                              std::uint64_t seed);

/** Generates @p count random k-regular instances. */
std::vector<graph::Graph> regularInstances(int n, int k, int count,
                                           std::uint64_t seed);

/**
 * The Fig. 11 instance pool on @p n nodes: @p count Erdős–Rényi
 * instances for each p in {0.1, ..., 0.6} (seeds seed+0..5), then
 * @p count k-regular instances for each k in {3, ..., 8} (seeds
 * seed+103..108).  @p n must be even so every k-regular family exists.
 */
std::vector<graph::Graph> fig11Pool(int n, int count, std::uint64_t seed);

/** Per-instance metric vectors for one (method, instance set) run. */
struct MetricSeries
{
    std::vector<double> depth;
    std::vector<double> gate_count;
    std::vector<double> compile_seconds;
    std::vector<double> swap_count;

    /** Per-instance terminal status (parallel to the vectors above). */
    std::vector<transpiler::CompileStatus> status;
};

/**
 * Compiles every instance with the given method and collects the §V-A
 * metrics.  A fresh per-instance seed is derived from opts.seed so each
 * instance is independent but the whole sweep is reproducible.
 *
 * Instances compile concurrently (qaoa::par::parallelForTasks, sized
 * by QAOA_THREADS); per-instance seeds are forked up front in the
 * serial iteration order, so depth/gate/SWAP metrics are identical at
 * 1 and N threads.
 *
 * Resilience: every instance runs under a child of opts.guard's token
 * (when set) and shares its total deadline, so one cancellation or an
 * expired batch deadline stops the whole sweep instead of burning the
 * remaining instances; the stragglers report Cancelled / TimedOut
 * statuses.  An instance that *throws* (contract violation, internal
 * error) cancels its siblings before the exception is rethrown.
 */
MetricSeries compileSeries(const std::vector<graph::Graph> &instances,
                           const hw::CouplingMap &map,
                           core::QaoaCompileOptions opts);

/**
 * Noiseless level-p QAOA of one cost Hamiltonian, evaluated on its
 * precomputed cost diagonal.
 *
 * Construction builds θ(z), the cost layer's phase per unit γ
 * (core::costDiagonal), once.  Each evolve() starts from |+...+>,
 * applies exp(iγθ(z)) in one sweep per level (one sincos per distinct
 * value of θ) and the mixer as n RX(2β) sweeps.  For maxcutCost(g),
 * θ(z) is the cut value C(z), so expectation() is the expected cut.
 * The state matches gate-by-gate simulation of buildQaoaCircuit(cost,
 * ...) to rounding; Statevector::apply stays the simulator of compiled
 * circuits.
 *
 * A non-null @p guard vets every buffer the evaluator holds against
 * max_statevector_bytes before allocating it (the 16 B/amplitude state
 * first, so a limit it exceeds throws before anything is allocated)
 * and is polled once per sweep.  The guard is non-owning and must
 * outlive the evaluator.
 */
class QaoaEvaluator
{
  public:
    explicit QaoaEvaluator(const core::CostHamiltonian &cost,
                           const run::RunGuard *guard = nullptr);

    /** Runs the level-p circuit (one γ and one β per level) and returns
     *  its final state. */
    const sim::Statevector &evolve(const std::vector<double> &gammas,
                                   const std::vector<double> &betas);

    /** ⟨θ⟩ in the state evolve(gammas, betas) returns. */
    double expectation(const std::vector<double> &gammas,
                       const std::vector<double> &betas);

  private:
    const run::RunGuard *guard_;
    sim::Statevector state_;
    sim::DiagonalTable cost_;
    std::vector<sim::Complex> phases_; ///< exp(iγ·value), per value.
};

/**
 * Exact (noiseless, infinite-shot) expected cut value of the level-p
 * QAOA circuit on the logical problem: one QaoaEvaluator run on
 * maxcutCost(problem), no sampling error.
 *
 * A non-null @p guard caps the evaluator's allocations
 * (max_statevector_bytes) and bounds cancellation latency to one sweep.
 */
double exactExpectedCut(const graph::Graph &problem,
                        const std::vector<double> &gammas,
                        const std::vector<double> &betas,
                        const run::RunGuard *guard = nullptr);

/** Optimal p=1 parameters found by grid seeding + Nelder–Mead. */
struct P1Parameters
{
    double gamma = 0.0;
    double beta = 0.0;
    double expected_cut = 0.0; ///< Noiseless expected cut at the optimum.
};

/**
 * Finds (γ, β) maximizing the noiseless expected cut at p = 1 —
 * the "optimal parameter values found in simulation" step of §V-G.
 */
P1Parameters optimizeP1(const graph::Graph &problem);

/** Structural hash of a problem graph (nodes + weighted edge list);
 *  guards checkpoints against cross-instance resume. */
std::string problemHash(const graph::Graph &problem);

/** Resilience knobs for optimizeP1Checkpointed(). */
struct OptimizeP1Options
{
    /** Optional cancellation/deadline guard polled once per committed
     *  optimizer step.  Non-owning. */
    const run::RunGuard *guard = nullptr;

    /** Checkpoint file; empty = no checkpointing.  The file is
     *  (re)written atomically after every committed step. */
    std::string checkpoint_path;

    /** Load checkpoint_path before starting when it exists.  A
     *  checkpoint for a different problem (hash mismatch) throws. */
    bool resume = false;
};

/** Outcome of a checkpointed p=1 optimization. */
struct P1Run
{
    P1Parameters params;
    int evaluations = 0;  ///< Objective evaluations (incl. pre-kill).
    bool resumed = false; ///< Continued from an on-disk checkpoint.
};

/**
 * optimizeP1() with cooperative cancellation and crash-safe
 * checkpoint/resume.
 *
 * With no checkpoint and no guard this is exactly optimizeP1().  A run
 * killed at any point (including SIGKILL) and restarted with
 * resume = true continues from the last committed optimizer step and
 * produces bit-identical final parameters, value and evaluation count
 * to an uninterrupted run: optimizer state round-trips through
 * hexfloat serialization and steps only commit at iteration
 * boundaries (see opt/checkpoint.hpp).
 *
 * @throws run::CancelledError / run::TimedOutError from the guard; the
 *         checkpoint then holds the last committed step and the run
 *         can be resumed.
 */
P1Run optimizeP1Checkpointed(const graph::Graph &problem,
                             const OptimizeP1Options &options);

} // namespace qaoa::metrics

#endif // QAOA_METRICS_HARNESS_HPP
