/**
 * @file
 * The three measured phases.  Every workload runs all three: its own
 * phase as Role::Primary with most of the run's time, the other two as
 * Role::Control slices (see README.md, "Why every workload reports
 * every metric").  main() interleaves them over PhasePlan::rounds
 * rounds, each round setting every phase up again, so a slow stretch of
 * the machine spreads over all phases instead of landing on one.
 *
 * Untraced runs fill PhaseResult::metrics with end-to-end metrics;
 * traced runs fill it with per-layer metrics and record spans in the
 * Tracer.
 */

#ifndef QAOA_PERFBENCH_PHASES_HPP
#define QAOA_PERFBENCH_PHASES_HPP

#include <memory>
#include <string>

#include "common.hpp"

namespace qaoa::bench {

/** One phase of a run. */
class Phase
{
  public:
    virtual ~Phase() = default;

    /** Builds this round's inputs and servers; timed as set-up. */
    virtual void setUp(int round) = 0;

    /** Measures for @p seconds. */
    virtual void measure(double seconds) = 0;

    /** Runs the output checks and moves every metric into @p out. */
    virtual void finish(PhaseResult &out) = 0;
};

/** compile-fig11: closed-loop compileQaoaMaxcut over the Fig. 11 pool. */
std::unique_ptr<Phase> makeCompilePhase(const PhasePlan &plan,
                                        Tracer *tracer);

/** p1-optimize: closed-loop optimizeP1Checkpointed. */
std::unique_ptr<Phase> makeP1Phase(const PhasePlan &plan, Tracer *tracer);

/**
 * serve-storm: open-loop traffic against a qaoa_serve process at
 * @p daemon (untraced), or against an in-process CompileServer
 * (traced).
 */
std::unique_ptr<Phase> makeServePhase(const PhasePlan &plan, Tracer *tracer,
                                      const std::string &daemon);

} // namespace qaoa::bench

#endif // QAOA_PERFBENCH_PHASES_HPP
