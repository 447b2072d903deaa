/**
 * @file
 * Tests for the deadline-aware compile runtime: cancellation tokens,
 * deadlines, retry/backoff, resource guards, guarded compiles,
 * cancel-anywhere determinism, and optimizer checkpoint/resume.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/deadline.hpp"
#include "common/guard.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "circuit/circuit.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "opt/checkpoint.hpp"
#include "opt/grid_search.hpp"
#include "qaoa/api.hpp"
#include "sim/statevector.hpp"
#include "transpiler/astar_router.hpp"

namespace qaoa {
namespace {

using run::CancelledError;
using run::CancelToken;
using run::Deadline;
using run::ResourceExceededError;
using run::ResourceLimits;
using run::RunGuard;
using run::TimedOutError;
using transpiler::CompileResult;
using transpiler::CompileStatus;

/** Restores automatic thread resolution when a test exits. */
struct ThreadGuard
{
    ~ThreadGuard() { par::setThreadCount(0); }
};

/** Ring + chords on 12 nodes — needs routing work on every device. */
graph::Graph
testProblem(int n = 12)
{
    graph::Graph g(n);
    for (int i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n);
    for (int i = 0; i + n / 2 < n; i += 2)
        g.addEdge(i, i + n / 2);
    return g;
}

// ---------------------------------------------------------------- tokens

TEST(CancelTokenTest, FreshTokenIsNotCancelled)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled("test"));
}

TEST(CancelTokenTest, RequestCancelTrips)
{
    CancelToken token;
    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.throwIfCancelled("test"), CancelledError);
}

TEST(CancelTokenTest, ChildSeesParentCancel)
{
    CancelToken parent;
    CancelToken child = parent.child();
    CancelToken grandchild = child.child();
    EXPECT_FALSE(grandchild.cancelled());
    parent.requestCancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(grandchild.cancelled());
}

TEST(CancelTokenTest, ParentDoesNotSeeChildCancel)
{
    CancelToken parent;
    CancelToken child = parent.child();
    child.requestCancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_FALSE(parent.cancelled());
}

TEST(CancelTokenTest, CancelAfterCountsPolls)
{
    CancelToken token;
    token.cancelAfter(3);
    EXPECT_FALSE(token.cancelled()); // survives poll 1
    EXPECT_FALSE(token.cancelled()); // survives poll 2
    EXPECT_FALSE(token.cancelled()); // survives poll 3
    EXPECT_TRUE(token.cancelled());  // trips on poll 4
    EXPECT_TRUE(token.cancelled());  // and stays tripped
}

TEST(CancelTokenTest, CancelAfterZeroTripsNextPoll)
{
    CancelToken token;
    token.cancelAfter(0);
    EXPECT_TRUE(token.cancelled());
}

// -------------------------------------------------------------- deadlines

TEST(DeadlineTest, NeverDeadlineNeverExpires)
{
    Deadline d = Deadline::never();
    EXPECT_FALSE(d.finite());
    EXPECT_FALSE(d.expired());
    EXPECT_TRUE(d.remainingMs() > 1e18);
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately)
{
    Deadline d = Deadline::afterMs(0.0);
    EXPECT_TRUE(d.finite());
    EXPECT_TRUE(d.expired());
    EXPECT_LE(d.remainingMs(), 0.0);
}

TEST(DeadlineTest, TightenedNeverLoosens)
{
    Deadline total = Deadline::afterMs(0.0);
    Deadline stage = total.tightened(60000.0);
    EXPECT_TRUE(stage.expired()) << "stage budget must not outlive the "
                                    "total deadline";
    Deadline unbounded = Deadline::never().tightened(-1.0);
    EXPECT_FALSE(unbounded.finite());
    Deadline staged = Deadline::never().tightened(60000.0);
    EXPECT_TRUE(staged.finite());
    EXPECT_FALSE(staged.expired());
}

TEST(DeadlineTest, TightenedClampsExpiredParentToZeroRemaining)
{
    // An already-expired parent must yield a stage with zero budget —
    // not a deadline deep in the past whose remainingMs() reports a
    // large negative stage budget in the watchdog trace.
    Deadline total = Deadline::afterMs(0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Deadline stage = total.tightened(60000.0);
    EXPECT_TRUE(stage.expired());
    EXPECT_LE(stage.remainingMs(), 0.0);
    EXPECT_GE(stage.remainingMs(), -5.0)
        << "expired-parent stage budget should clamp to ~zero, not "
           "inherit the parent's point in the past";
}

// --------------------------------------------------------- retry/backoff

TEST(RetryTest, BackoffGrowsAndCaps)
{
    run::RetryOptions opts;
    opts.base_delay_ms = 1.0;
    opts.multiplier = 2.0;
    opts.max_delay_ms = 3.0;
    opts.jitter = 0.0;
    Rng rng(1);
    EXPECT_DOUBLE_EQ(run::backoffDelayMs(opts, 1, rng), 1.0);
    EXPECT_DOUBLE_EQ(run::backoffDelayMs(opts, 2, rng), 2.0);
    EXPECT_DOUBLE_EQ(run::backoffDelayMs(opts, 3, rng), 3.0); // capped
    EXPECT_DOUBLE_EQ(run::backoffDelayMs(opts, 9, rng), 3.0);
}

TEST(RetryTest, JitterIsDeterministicPerSeed)
{
    run::RetryOptions opts;
    Rng a(42), b(42);
    for (int attempt = 1; attempt <= 4; ++attempt)
        EXPECT_DOUBLE_EQ(run::backoffDelayMs(opts, attempt, a),
                         run::backoffDelayMs(opts, attempt, b));
}

TEST(RetryTest, RetriesTransientFailures)
{
    run::RetryOptions opts;
    opts.max_attempts = 5;
    opts.base_delay_ms = 0.1;
    int calls = 0, attempts = 0;
    const int result = run::retryWithBackoff(
        [&]() {
            if (++calls < 3)
                throw std::runtime_error("transient");
            return 77;
        },
        opts, Deadline::never(), CancelToken(), &attempts);
    EXPECT_EQ(result, 77);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(attempts, 3);
}

TEST(RetryTest, ExhaustsAttempts)
{
    run::RetryOptions opts;
    opts.max_attempts = 3;
    opts.base_delay_ms = 0.1;
    int calls = 0;
    EXPECT_THROW(run::retryWithBackoff(
                     [&]() -> int {
                         ++calls;
                         throw std::runtime_error("always");
                     },
                     opts),
                 std::runtime_error);
    EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NeverRetriesCancellation)
{
    run::RetryOptions opts;
    opts.max_attempts = 5;
    int calls = 0;
    EXPECT_THROW(run::retryWithBackoff(
                     [&]() -> int {
                         ++calls;
                         throw CancelledError("stop");
                     },
                     opts),
                 CancelledError);
    EXPECT_EQ(calls, 1);
    calls = 0;
    EXPECT_THROW(run::retryWithBackoff(
                     [&]() -> int {
                         ++calls;
                         throw TimedOutError("late");
                     },
                     opts),
                 TimedOutError);
    EXPECT_EQ(calls, 1);
}

TEST(RetryTest, CancellableSleepAbortsPromptly)
{
    CancelToken token;
    token.requestCancel();
    EXPECT_THROW(run::cancellableSleepMs(10000.0, token), CancelledError);
}

// ------------------------------------------------------------- run guard

TEST(RunGuardTest, PollThrowsOnCancelledToken)
{
    CancelToken token;
    RunGuard guard(token, Deadline::never());
    EXPECT_NO_THROW(guard.poll("loop"));
    token.requestCancel();
    EXPECT_THROW(guard.poll("loop"), CancelledError);
}

TEST(RunGuardTest, StrictPollDetectsExpiredDeadline)
{
    RunGuard guard(CancelToken(), Deadline::afterMs(0.0));
    EXPECT_THROW(guard.pollStrict("stage entry"), TimedOutError);
}

TEST(RunGuardTest, DecimatedPollDetectsExpiryWithinStride)
{
    RunGuard guard(CancelToken(), Deadline::afterMs(0.0));
    bool threw = false;
    for (std::uint32_t i = 0; i <= RunGuard::kDeadlineStride; ++i) {
        try {
            guard.poll("loop");
        } catch (const TimedOutError &) {
            threw = true;
            break;
        }
    }
    EXPECT_TRUE(threw);
}

TEST(RunGuardTest, AllocationGuard)
{
    ResourceLimits limits;
    limits.max_statevector_bytes = 1024;
    RunGuard guard(CancelToken(), Deadline::never(), limits);
    EXPECT_NO_THROW(guard.checkAllocation("statevector", 1024));
    EXPECT_THROW(guard.checkAllocation("statevector", 1025),
                 ResourceExceededError);
}

TEST(RunGuardTest, StatevectorHonorsAllocationCap)
{
    ResourceLimits limits;
    limits.max_statevector_bytes = 1024; // 6 qubits * 16 B = 1024 B
    RunGuard guard(CancelToken(), Deadline::never(), limits);
    EXPECT_NO_THROW(sim::Statevector(6, &guard));
    EXPECT_THROW(sim::Statevector(7, &guard), ResourceExceededError);
}

// ------------------------------------------------------ guarded compiles

TEST(GuardedCompileTest, ExpiredDeadlineYieldsTimedOutStatus)
{
    const hw::CouplingMap map = hw::ibmqTokyo20();
    RunGuard guard(CancelToken(), Deadline::afterMs(0.0));
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.guard = &guard;
    CompileResult r = core::compileQaoaMaxcut(testProblem(), map, opts);
    EXPECT_EQ(r.status, CompileStatus::TimedOut);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.failure_reason.empty());
    EXPECT_EQ(r.compiled.gates().size(), 0u)
        << "a timed-out compile must not emit a partial circuit";
}

TEST(GuardedCompileTest, PreCancelledTokenYieldsCancelledStatus)
{
    const hw::CouplingMap map = hw::ibmqTokyo20();
    CancelToken token;
    token.requestCancel();
    RunGuard guard(token, Deadline::never());
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.guard = &guard;
    CompileResult r = core::compileQaoaMaxcut(testProblem(), map, opts);
    EXPECT_EQ(r.status, CompileStatus::Cancelled);
    EXPECT_EQ(r.compiled.gates().size(), 0u);
}

TEST(GuardedCompileTest, StageBudgetTimeoutIsRecordedPerRung)
{
    const hw::CouplingMap map = hw::ibmqTokyo20();
    // No total deadline, but a zero per-stage budget: every rung times
    // out, the ladder keeps falling, and the exhausted ladder reports
    // the uniform resilience class instead of a generic failure.
    RunGuard guard(CancelToken(), Deadline::never());
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.guard = &guard;
    opts.stage_budget_ms = 0.0;
    CompileResult r = core::compileQaoaMaxcut(testProblem(), map, opts);
    EXPECT_EQ(r.status, CompileStatus::TimedOut);
    ASSERT_GT(r.stages.size(), 1u)
        << "a stage-budget timeout is degradable: later rungs must run";
    for (const run::StageTrace &t : r.stages)
        EXPECT_EQ(t.outcome, run::StageOutcome::TimedOut) << t.stage;
}

TEST(GuardedCompileTest, SwapBreakerYieldsResourceExceeded)
{
    const hw::CouplingMap map = hw::linearDevice(6);
    graph::Graph clique(4);
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b)
            clique.addEdge(a, b);
    ResourceLimits limits;
    limits.max_router_swaps = 0; // K4 on a line cannot route swap-free
    RunGuard guard(CancelToken(), Deadline::never(), limits);
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.guard = &guard;
    CompileResult r = core::compileQaoaMaxcut(clique, map, opts);
    EXPECT_EQ(r.status, CompileStatus::ResourceExceeded);
    EXPECT_EQ(r.compiled.gates().size(), 0u);
    ASSERT_FALSE(r.stages.empty());
    for (const run::StageTrace &t : r.stages)
        EXPECT_EQ(t.outcome, run::StageOutcome::GuardTripped) << t.stage;
}

TEST(GuardedCompileTest, AStarExpansionCapStillRoutes)
{
    // Exhausting the A* expansion budget falls back to the
    // shortest-path walk — a guard-tightened budget degrades quality,
    // never correctness.
    const hw::CouplingMap map = hw::linearDevice(6);
    circuit::Circuit logical(6);
    logical.add(circuit::Gate::cnot(0, 5));
    logical.add(circuit::Gate::cnot(1, 4));
    const transpiler::Layout initial = transpiler::Layout::identity(6, 6);

    ResourceLimits limits;
    limits.max_astar_expansions = 1;
    RunGuard guard(CancelToken(), Deadline::never(), limits);
    transpiler::AStarOptions astar;
    astar.guard = &guard;
    const transpiler::RoutedCircuit routed =
        transpiler::routeCircuitAStar(logical, map, initial, astar);
    EXPECT_GT(routed.swap_count, 0);

    transpiler::AStarOptions unbounded;
    const transpiler::RoutedCircuit reference =
        transpiler::routeCircuitAStar(logical, map, initial, unbounded);
    EXPECT_EQ(reference.physical.gates().size() > 0,
              routed.physical.gates().size() > 0);

    CancelToken token;
    token.requestCancel();
    RunGuard cancelled(token, Deadline::never());
    transpiler::AStarOptions doomed;
    doomed.guard = &cancelled;
    EXPECT_THROW(
        transpiler::routeCircuitAStar(logical, map, initial, doomed),
        CancelledError);
}

TEST(GuardedCompileTest, UnguardedResultsAreUnaffectedByGuard)
{
    const hw::CouplingMap map = hw::ibmqTokyo20();
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.seed = 1234;
    CompileResult plain = core::compileQaoaMaxcut(testProblem(), map, opts);
    RunGuard guard(CancelToken(), Deadline::afterMs(60000.0));
    opts.guard = &guard;
    opts.stage_budget_ms = 60000.0;
    CompileResult guarded =
        core::compileQaoaMaxcut(testProblem(), map, opts);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(guarded.ok());
    EXPECT_EQ(plain.compiled.gates().size(),
              guarded.compiled.gates().size());
    EXPECT_EQ(plain.report.depth, guarded.report.depth);
    EXPECT_EQ(plain.report.swap_count, guarded.report.swap_count);
    ASSERT_EQ(guarded.stages.size(), 1u);
    EXPECT_EQ(guarded.stages[0].outcome, run::StageOutcome::Completed);
}

// ------------------------------------------- cancel-anywhere determinism

TEST(CancelAnywhereTest, RandomizedCancelPointsNeverCorruptState)
{
    ThreadGuard thread_guard;
    const hw::CouplingMap map = hw::ibmqTokyo20();
    const hw::CalibrationData calib(map);
    const std::vector<graph::Graph> pool = {testProblem(10),
                                            testProblem(12),
                                            testProblem(14)};

    for (core::Method method : {core::Method::Ic, core::Method::Vic}) {
        core::QaoaCompileOptions opts;
        opts.method = method;
        opts.calibration = &calib;
        opts.seed = 99;

        // Reference: never-cancelled series, single-threaded.
        par::setThreadCount(1);
        const metrics::MetricSeries reference =
            metrics::compileSeries(pool, map, opts);
        for (CompileStatus s : reference.status)
            ASSERT_TRUE(s == CompileStatus::Ok ||
                        s == CompileStatus::Degraded);

        Rng points(2026);
        for (int threads : {1, 2, 8}) {
            par::setThreadCount(threads);
            for (int trial = 0; trial < 4; ++trial) {
                // Cancel after a randomized number of polls somewhere
                // inside the compile pipeline.
                CancelToken token;
                token.cancelAfter(static_cast<std::uint64_t>(
                    points.uniformInt(0, 400)));
                RunGuard guard(token, Deadline::never());
                core::QaoaCompileOptions cancelled = opts;
                cancelled.guard = &guard;
                const metrics::MetricSeries series =
                    metrics::compileSeries(pool, map, cancelled);
                for (CompileStatus s : series.status)
                    ASSERT_TRUE(s == CompileStatus::Ok ||
                                s == CompileStatus::Degraded ||
                                s == CompileStatus::Cancelled)
                        << "unexpected status " << static_cast<int>(s);

                // A subsequent uncancelled run of the same seed must be
                // bit-identical to the never-cancelled reference.
                const metrics::MetricSeries redo =
                    metrics::compileSeries(pool, map, opts);
                ASSERT_EQ(redo.depth, reference.depth);
                ASSERT_EQ(redo.gate_count, reference.gate_count);
                ASSERT_EQ(redo.swap_count, reference.swap_count);
            }
        }
    }
}

// ------------------------------------------------- parallel cancel/fail

TEST(ParallelCancelTest, FirstErrorCancelsSiblings)
{
    ThreadGuard thread_guard;
    par::setThreadCount(1);
    CancelToken token;
    std::atomic<int> ran{0};
    EXPECT_THROW(
        par::parallelForTasks(100, token,
                              [&](std::uint64_t i) {
                                  if (i == 0)
                                      throw std::runtime_error("boom");
                                  ran.fetch_add(1,
                                                std::memory_order_relaxed);
                              }),
        std::runtime_error);
    EXPECT_TRUE(token.cancelled())
        << "a failing task must trip the shared token";
    EXPECT_EQ(ran.load(), 0) << "serial run must stop at the failure";
}

TEST(ParallelCancelTest, FirstErrorPropagatesAtManyThreads)
{
    ThreadGuard thread_guard;
    par::setThreadCount(8);
    CancelToken token;
    EXPECT_THROW(par::parallelForTasks(
                     1000, token,
                     [&](std::uint64_t i) {
                         if (i % 7 == 3)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    EXPECT_TRUE(token.cancelled());
}

TEST(ParallelCancelTest, ExternallyCancelledTokenSkipsWork)
{
    ThreadGuard thread_guard;
    par::setThreadCount(4);
    CancelToken token;
    token.requestCancel();
    std::atomic<int> ran{0};
    EXPECT_NO_THROW(par::parallelForTasks(
        100, token, [&](std::uint64_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        }));
    EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelCancelTest, CompileSeriesFailsFastOnContractViolation)
{
    ThreadGuard thread_guard;
    par::setThreadCount(2);
    const hw::CouplingMap map = hw::linearDevice(8);
    // Second instance is larger than the device: a contract violation
    // that throws out of compileQaoaMaxcut and must abort the batch.
    std::vector<graph::Graph> pool = {testProblem(8), testProblem(12)};
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Qaim;
    EXPECT_THROW(metrics::compileSeries(pool, map, opts),
                 std::runtime_error);
}

// ------------------------------------------------------------ rng state

TEST(RngStateTest, StateStringRoundTripsBitIdentically)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.uniformInt(0, 1 << 20);
    const std::string state = a.stateString();
    Rng b(0);
    b.setStateString(state);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.uniformInt(0, 1 << 20), b.uniformInt(0, 1 << 20));
}

TEST(RngStateTest, MalformedStateThrows)
{
    Rng rng(1);
    EXPECT_THROW(rng.setStateString("not a state"), std::runtime_error);
}

// --------------------------------------------------- checkpoint format

TEST(CheckpointTest, HexDoublesRoundTripExactly)
{
    for (double v : {0.0, -0.0, 1.0, -1.5, 3.141592653589793,
                     6.62607015e-34, 1.7976931348623157e308}) {
        const std::string hex = text::formatHexDouble(v);
        EXPECT_EQ(text::parseHexDouble(hex).value(), v) << hex;
    }
}

TEST(CheckpointTest, SerializeParseRoundTrip)
{
    opt::OptCheckpoint cp;
    cp.problem_hash = "deadbeef01234567";
    cp.phase = opt::OptPhase::Nm;
    cp.grid.cursor = {3, 7};
    cp.grid.best_x = {0.25, 1.75};
    cp.grid.best_value = -11.25;
    cp.grid.evaluations = 42;
    cp.grid.done = true;
    cp.nm.simplex = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
    cp.nm.values = {-1.0, -2.0, -3.0};
    cp.nm.iterations = 17;
    cp.nm.evaluations = 23;
    cp.nm.initialized = true;
    cp.rng_state = "1 2 3 4 5";

    const opt::OptCheckpoint back =
        opt::parseCheckpoint(opt::serializeCheckpoint(cp));
    EXPECT_EQ(back.problem_hash, cp.problem_hash);
    EXPECT_EQ(back.phase, cp.phase);
    EXPECT_EQ(back.grid.cursor, cp.grid.cursor);
    EXPECT_EQ(back.grid.best_x, cp.grid.best_x);
    EXPECT_EQ(back.grid.best_value, cp.grid.best_value);
    EXPECT_EQ(back.grid.evaluations, cp.grid.evaluations);
    EXPECT_EQ(back.grid.done, cp.grid.done);
    EXPECT_EQ(back.nm.simplex, cp.nm.simplex);
    EXPECT_EQ(back.nm.values, cp.nm.values);
    EXPECT_EQ(back.nm.iterations, cp.nm.iterations);
    EXPECT_EQ(back.nm.evaluations, cp.nm.evaluations);
    EXPECT_EQ(back.nm.initialized, cp.nm.initialized);
    EXPECT_EQ(back.rng_state, cp.rng_state);
}

TEST(CheckpointTest, UnknownKeyAndBadFormatThrow)
{
    EXPECT_THROW(opt::parseCheckpoint("{\"format\": "
                                      "\"qaoa-opt-checkpoint-v1\", "
                                      "\"bogus\": \"1\"}"),
                 std::runtime_error);
    EXPECT_THROW(opt::parseCheckpoint("{\"format\": \"other-v9\"}"),
                 std::runtime_error);
    EXPECT_THROW(opt::parseCheckpoint("{}"), std::runtime_error);
}

TEST(CheckpointTest, SaveLoadFileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "qaoa_checkpoint_roundtrip.json";
    std::remove(path.c_str());
    opt::OptCheckpoint missing;
    EXPECT_FALSE(opt::loadCheckpointFile(path, missing));

    opt::OptCheckpoint cp;
    cp.problem_hash = "cafe";
    cp.phase = opt::OptPhase::Done;
    cp.final_x = {0.5, 0.25};
    cp.final_value = -9.75;
    cp.final_evaluations = 150;
    opt::saveCheckpointFile(path, cp);

    opt::OptCheckpoint back;
    ASSERT_TRUE(opt::loadCheckpointFile(path, back));
    EXPECT_EQ(back.problem_hash, "cafe");
    EXPECT_EQ(back.phase, opt::OptPhase::Done);
    EXPECT_EQ(back.final_x, cp.final_x);
    EXPECT_EQ(back.final_value, cp.final_value);
    EXPECT_EQ(back.final_evaluations, cp.final_evaluations);
    std::remove(path.c_str());
}

// ------------------------------------------------- resumable optimizers

TEST(ResumableOptTest, GridResumeMatchesStraightRun)
{
    const opt::Objective f = [](const std::vector<double> &x) {
        return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] + 0.2) * (x[1] + 0.2);
    };
    const std::vector<opt::GridAxis> axes{{-1.0, 1.0, 9},
                                          {-1.0, 1.0, 7}};
    const opt::OptResult straight = opt::gridSearch(f, axes);

    for (std::uint64_t cancel_at : {0ULL, 1ULL, 10ULL, 31ULL, 62ULL}) {
        CancelToken token;
        token.cancelAfter(cancel_at);
        RunGuard guard(token, Deadline::never());
        opt::OptHooks hooks;
        hooks.guard = &guard;
        opt::GridSearchState state;
        try {
            opt::gridSearchResume(f, axes, state, hooks);
        } catch (const CancelledError &) {
            // Cancellation is the expected outcome. qe-allow(QE101)
        }
        const opt::OptResult resumed =
            opt::gridSearchResume(f, axes, state);
        EXPECT_EQ(resumed.x, straight.x);
        EXPECT_EQ(resumed.value, straight.value);
        EXPECT_EQ(resumed.evaluations, straight.evaluations);
    }
}

TEST(ResumableOptTest, NelderMeadResumeMatchesStraightRun)
{
    const opt::Objective f = [](const std::vector<double> &x) {
        const double a = x[0] - 1.0, b = x[1] + 0.5;
        return a * a + 3.0 * b * b + 0.1 * a * b;
    };
    const std::vector<double> x0{0.0, 0.0};
    const opt::OptResult straight = opt::nelderMead(f, x0);

    for (std::uint64_t cancel_at : {0ULL, 3ULL, 20ULL, 100ULL}) {
        CancelToken token;
        token.cancelAfter(cancel_at);
        RunGuard guard(token, Deadline::never());
        opt::OptHooks hooks;
        hooks.guard = &guard;
        opt::NelderMeadState state;
        try {
            opt::nelderMeadResume(f, x0, {}, state, hooks);
        } catch (const CancelledError &) {
            // Cancellation is the expected outcome. qe-allow(QE101)
        }
        const opt::OptResult resumed =
            opt::nelderMeadResume(f, x0, {}, state);
        EXPECT_EQ(resumed.x, straight.x);
        EXPECT_EQ(resumed.value, straight.value);
        EXPECT_EQ(resumed.iterations, straight.iterations);
        EXPECT_EQ(resumed.evaluations, straight.evaluations);
    }
}

TEST(ResumableOptTest, KillAndResumeP1IsBitIdentical)
{
    const graph::Graph problem = testProblem(8);
    const metrics::P1Parameters straight = metrics::optimizeP1(problem);

    const std::string path =
        ::testing::TempDir() + "qaoa_p1_resume.json";
    for (std::uint64_t cancel_at : {0ULL, 7ULL, 40ULL, 150ULL, 400ULL}) {
        std::remove(path.c_str());
        // "Kill" the run by cancelling after a randomized poll count;
        // the checkpoint holds the last committed optimizer step.
        CancelToken token;
        token.cancelAfter(cancel_at);
        RunGuard guard(token, Deadline::never());
        metrics::OptimizeP1Options first;
        first.guard = &guard;
        first.checkpoint_path = path;
        bool finished_first_try = false;
        try {
            metrics::optimizeP1Checkpointed(problem, first);
            finished_first_try = true;
        } catch (const CancelledError &) {
            // Cancellation is the expected outcome. qe-allow(QE101)
        }

        // A very early kill may die before the first committed step —
        // then there is no checkpoint and the rerun starts fresh, which
        // must still match the straight run.
        const bool have_checkpoint =
            std::ifstream(path.c_str()).good();
        metrics::OptimizeP1Options second;
        second.checkpoint_path = path;
        second.resume = true;
        const metrics::P1Run resumed =
            metrics::optimizeP1Checkpointed(problem, second);
        EXPECT_EQ(resumed.params.gamma, straight.gamma)
            << "cancel_at=" << cancel_at;
        EXPECT_EQ(resumed.params.beta, straight.beta);
        EXPECT_EQ(resumed.params.expected_cut, straight.expected_cut);
        if (!finished_first_try && have_checkpoint) {
            EXPECT_TRUE(resumed.resumed);
        }
    }
    std::remove(path.c_str());
}

TEST(ResumableOptTest, CheckpointForDifferentProblemIsRejected)
{
    const std::string path =
        ::testing::TempDir() + "qaoa_p1_wrong_problem.json";
    std::remove(path.c_str());
    metrics::OptimizeP1Options save_opts;
    save_opts.checkpoint_path = path;
    metrics::optimizeP1Checkpointed(testProblem(8), save_opts);

    metrics::OptimizeP1Options resume_opts;
    resume_opts.checkpoint_path = path;
    resume_opts.resume = true;
    EXPECT_THROW(
        metrics::optimizeP1Checkpointed(testProblem(10), resume_opts),
        std::runtime_error);
    std::remove(path.c_str());
}

} // namespace
} // namespace qaoa
