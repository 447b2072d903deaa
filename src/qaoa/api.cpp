#include "qaoa/api.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/guard.hpp"
#include "common/stopwatch.hpp"
#include "qaoa/ip.hpp"
#include "qaoa/ising.hpp"
#include "qaoa/profile_stats.hpp"
#include "qaoa/qaim.hpp"
#include "transpiler/layout_passes.hpp"
#include "verify/verifier.hpp"

namespace qaoa::core {

std::string
methodName(Method m)
{
    switch (m) {
      case Method::Naive: return "NAIVE";
      case Method::GreedyV: return "GreedyV";
      case Method::Qaim: return "QAIM";
      case Method::Ip: return "IP";
      case Method::Ic: return "IC";
      case Method::Vic: return "VIC";
    }
    QAOA_ASSERT(false, "unknown method");
    return {};
}

Method
methodFromName(const std::string &name)
{
    if (name == "naive")
        return Method::Naive;
    if (name == "greedyv")
        return Method::GreedyV;
    if (name == "qaim")
        return Method::Qaim;
    if (name == "ip")
        return Method::Ip;
    if (name == "ic")
        return Method::Ic;
    if (name == "vic")
        return Method::Vic;
    QAOA_CHECK(false, "unknown method: " << name);
    return Method::Ic; // unreachable
}

namespace {

using transpiler::CompileOptions;
using transpiler::CompileResult;
using transpiler::CompileStatus;
using transpiler::Layout;

/** Initial mapping per method (Fig. 2 "QAIM" box or a baseline). */
Layout
chooseLayout(Method method, const std::vector<ZZOp> &ops, int num_logical,
             const hw::CouplingMap &map, Rng &rng,
             const std::vector<char> *allowed)
{
    switch (method) {
      case Method::Naive:
        return transpiler::randomLayout(num_logical, map, rng, allowed);
      case Method::GreedyV:
        return transpiler::greedyVLayout(opsPerQubit(ops, num_logical),
                                         map, allowed);
      default: {
        QaimOptions qopts;
        qopts.allowed_qubits = allowed;
        return qaimLayout(ops, num_logical, map, rng, qopts);
      }
    }
}

/**
 * One-shot path (NAIVE / GreedyV / QAIM / IP): build the complete logical
 * circuit in the chosen gate order and hand it to the backend compiler.
 *
 * @p method and @p copts.router are explicit (instead of read from
 * @p opts) so the retry ladder can substitute fallback rungs.
 */
CompileResult
compileOneShot(const CostHamiltonian &cost, const hw::CouplingMap &map,
               const QaoaCompileOptions &opts, Method method,
               CompileOptions copts, const Layout &initial, Rng &rng)
{
    CostHamiltonian ordered = cost;
    if (method == Method::Ip) {
        ordered.zz = ipOrder(cost.zz, cost.num_qubits, rng,
                             opts.packing_limit)
                         .order;
    } else {
        rng.shuffle(ordered.zz); // random CPHASE sequence
    }

    circuit::Circuit logical =
        buildQaoaCircuit(ordered, opts.gammas, opts.betas, opts.measure);

    copts.router.seed = rng.fork();
    // Conventional backends partition the circuit into layers of
    // concurrently executable gates and route layer by layer (§III) —
    // this is what makes the CPHASE order matter for NAIVE/QAIM/IP.
    copts.layered_routing = true;
    return transpiler::compileCircuit(logical, map, initial, copts);
}

/**
 * Incremental path (IC / VIC): H wall, then per level an incrementally
 * routed cost layer, its fields and the mixer, stitched on physical
 * qubits.
 */
CompileResult
compileIncremental(const CostHamiltonian &cost, const hw::CouplingMap &map,
                   const QaoaCompileOptions &opts, Method method,
                   const CompileOptions &copts, const Layout &initial,
                   Rng &rng)
{
    graph::DistanceMatrix weighted;
    IncrementalOptions iopts;
    iopts.packing_limit = opts.packing_limit;
    iopts.router = copts.router;
    if (method == Method::Vic) {
        QAOA_CHECK(opts.calibration != nullptr,
                   "VIC requires calibration data");
        weighted = hw::weightedDistances(map, *opts.calibration);
        iopts.distances = &weighted;
    }

    const int n = cost.num_qubits;
    circuit::Circuit physical(map.numQubits());
    Layout layout = initial;

    // H wall on the initially mapped physical qubits.
    for (int l = 0; l < n; ++l)
        physical.add(circuit::Gate::h(layout.physicalOf(l)));

    int swaps = 0;
    for (std::size_t level = 0; level < opts.gammas.size(); ++level) {
        const double gamma = opts.gammas[level];
        iopts.seed = rng.fork();
        IncrementalResult inc =
            icCompileCostLayer(cost.zz, map, layout, gamma, iopts);
        physical.append(inc.physical);
        layout = inc.final_layout;
        swaps += inc.swap_count;
        // Fields are virtual RZs at the post-cost-layer positions.
        for (std::size_t l = 0; l < cost.z.size(); ++l)
            if (cost.z[l] != 0.0)
                physical.add(circuit::Gate::rz(
                    layout.physicalOf(static_cast<int>(l)),
                    gamma * cost.z[l]));
        for (int l = 0; l < n; ++l)
            physical.add(circuit::Gate::rx(layout.physicalOf(l),
                                           2.0 * opts.betas[level]));
    }
    if (opts.measure)
        for (int l = 0; l < n; ++l)
            physical.add(circuit::Gate::measure(layout.physicalOf(l), l));

    return transpiler::finishCompile(std::move(physical), initial, layout,
                                     swaps, copts);
}

/**
 * The logical ZZ multiset a compiled circuit must realize: one term per
 * cost ZZ term per level, angle = gamma_level * weight.
 */
std::vector<verify::ZZTerm>
expectedInteractions(const CostHamiltonian &cost,
                     const std::vector<double> &gammas)
{
    std::vector<verify::ZZTerm> terms;
    terms.reserve(cost.zz.size() * gammas.size());
    for (double gamma : gammas)
        for (const ZZOp &op : cost.zz)
            terms.push_back({op.a, op.b, gamma * op.weight});
    return terms;
}

/**
 * Per-rung translation validation: checks result.physical against the
 * (possibly degraded) map and the expected ZZ multiset.  A dirty rung is
 * downgraded to CompileStatus::Failed so runLadder() falls back instead
 * of returning a miscompiled circuit.
 */
void
verifyRung(CompileResult &result, const hw::CouplingMap &map,
           const QaoaCompileOptions &opts,
           const std::vector<verify::ZZTerm> &expected)
{
    if (!opts.verify || !result.ok())
        return;
    verify::VerifySpec spec;
    spec.map = &map;
    spec.allowed_qubits = opts.allowed_qubits;
    spec.initial_log_to_phys = result.initial_layout.logToPhys();
    spec.expected_final = result.final_layout.logToPhys();
    spec.expected_interactions = &expected;
    spec.lift_basis = false; // result.physical holds high-level gates
    // The peephole optimizer legally deletes CPHASEs whose angle is a
    // multiple of 2pi; don't flag those as missing interactions.
    spec.ignore_zero_interactions = opts.peephole;
    const diag::Report report = verify::verifyCircuit(result.physical, spec);
    if (!report.clean()) {
        result.status = CompileStatus::Failed;
        result.failure_reason =
            "verifier rejected the compiled circuit: " + report.summary();
        result.diagnostics.push_back(result.failure_reason);
    }
}

/**
 * checkQuality hook: records the static quality report of a successful
 * compile in result.quality.  Analysis only — the circuit, layouts and
 * §V-A report are untouched, and no rng state is consumed.
 */
void
checkQuality(CompileResult &result, const hw::CouplingMap &map,
             const QaoaCompileOptions &opts)
{
    if (!opts.analyze_quality || !result.ok())
        return;
    analysis::QualityOptions qopts;
    qopts.lint.map = &map;
    qopts.lint.calibration = opts.calibration;
    qopts.lint.crosstalk_pairs = opts.crosstalk_pairs;
    result.quality = analysis::analyzeCircuit(result.physical, qopts);
}

/** One rung of the retry ladder. */
struct Attempt
{
    Method method;
    transpiler::RouterOptions router;
    std::string label;
};

/**
 * The bounded retry ladder (§IV-D spirit: adapt to the hardware instead
 * of dying).  Rung 0 is the caller's exact request; on failure the same
 * method retries with a relaxed (lookahead-free) router, then the method
 * falls back towards plain QAIM ordering: VIC -> IC -> QAIM, everything
 * else -> QAIM.
 */
std::vector<Attempt>
buildLadder(const QaoaCompileOptions &opts)
{
    std::vector<Attempt> ladder;
    ladder.push_back({opts.method, opts.router, "requested configuration"});
    if (!opts.allow_fallbacks)
        return ladder;
    transpiler::RouterOptions relaxed = opts.router;
    relaxed.lookahead_weight = 0.0;
    relaxed.lookahead_depth = 0;
    ladder.push_back({opts.method, relaxed,
                      methodName(opts.method) + " with relaxed router"});
    if (opts.method == Method::Vic)
        ladder.push_back({Method::Ic, relaxed, "fallback to IC"});
    if (opts.method != Method::Qaim)
        ladder.push_back({Method::Qaim, relaxed, "fallback to QAIM"});
    return ladder;
}

/** True when the caller marked the device degraded or qubits unusable,
 *  or the map is fragmented. */
bool
deviceDegraded(const hw::CouplingMap &map, const QaoaCompileOptions &opts)
{
    if (opts.device_degraded || !map.connected())
        return true;
    if (!opts.allowed_qubits)
        return false;
    for (int q = 0; q < map.numQubits(); ++q)
        if (!(*opts.allowed_qubits)[static_cast<std::size_t>(q)])
            return true;
    return false;
}

/** Count of usable qubits under @p allowed (all when nullptr). */
int
usableCount(const hw::CouplingMap &map, const std::vector<char> *allowed)
{
    if (!allowed)
        return map.numQubits();
    int count = 0;
    for (char c : *allowed)
        if (c)
            ++count;
    return count;
}

/**
 * Checks that the usable region can host an @p n qubit program.  On
 * failure fills @p out with a structured Failed result (no attempt can
 * succeed, so the ladder is skipped entirely) and returns false.
 */
bool
supportsProgram(const hw::CouplingMap &map, const QaoaCompileOptions &opts,
                int n, CompileResult *out)
{
    const int usable = usableCount(map, opts.allowed_qubits);
    if (usable >= n)
        return true;
    out->compiled = circuit::Circuit(map.numQubits());
    out->status = CompileStatus::Failed;
    out->failure_reason =
        "no connected component large enough: program needs " +
        std::to_string(n) + " qubits, device " + map.name() + " has " +
        std::to_string(usable) + " usable of " +
        std::to_string(map.numQubits());
    out->diagnostics.push_back(out->failure_reason);
    return false;
}

/** Stage-trace outcome class of a rung's terminal status. */
run::StageOutcome
outcomeOf(CompileStatus s)
{
    switch (s) {
      case CompileStatus::Ok:
      case CompileStatus::Degraded: return run::StageOutcome::Completed;
      case CompileStatus::Failed: return run::StageOutcome::Failed;
      case CompileStatus::TimedOut: return run::StageOutcome::TimedOut;
      case CompileStatus::Cancelled: return run::StageOutcome::Cancelled;
      case CompileStatus::ResourceExceeded:
        return run::StageOutcome::GuardTripped;
    }
    QAOA_ASSERT(false, "unknown compile status");
    return run::StageOutcome::Failed;
}

/**
 * Drives @p attempt_fn down the retry ladder until one rung compiles.
 *
 * @p attempt_fn runs one full pipeline attempt (placement + ordering +
 * routing) for a given method/router/seed; it may throw or return a
 * non-ok result.  Rung 0 uses opts.seed unchanged — healthy-device
 * compiles are bit-identical to the ladder-free pipeline — and every
 * retry derives its seed from one Rng stream, so identical seeds give
 * identical degraded compiles.
 *
 * Resilience semantics (when opts.guard is set): every rung runs under
 * a stage guard whose deadline is min(total deadline, now + stage
 * budget).  Cancellation aborts the ladder immediately; a timeout
 * aborts only when the *total* deadline is spent (a stage-budget
 * timeout is degradable — the next rung gets a fresh budget); a
 * resource-guard trip is degradable like a routing failure.  One
 * StageTrace per rung is recorded in CompileResult::stages.
 */
template <typename AttemptFn>
CompileResult
runLadder(const hw::CouplingMap &map, const QaoaCompileOptions &opts,
          AttemptFn attempt_fn)
{
    const bool degraded = deviceDegraded(map, opts);
    const std::vector<Attempt> ladder = buildLadder(opts);
    Rng retry_rng(opts.seed);
    std::vector<std::string> notes;
    std::vector<run::StageTrace> traces;
    int timed_out_rungs = 0;
    int guard_tripped_rungs = 0;

    // Terminal non-ok result: no partial circuit, full flight record.
    auto interrupted = [&](CompileStatus status,
                           const std::string &reason) {
        CompileResult out;
        out.compiled = circuit::Circuit(map.numQubits());
        out.status = status;
        out.diagnostics = notes;
        out.stages = traces;
        out.failure_reason = reason;
        return out;
    };

    // A deadline that expired before the first rung (e.g. earlier
    // instances of a batch burned it) must not start new work.
    if (opts.guard) {
        try {
            opts.guard->pollStrict("compile start");
        } catch (const run::CancelledError &e) {
            return interrupted(CompileStatus::Cancelled, e.what());
        } catch (const run::TimedOutError &e) {
            return interrupted(CompileStatus::TimedOut, e.what());
        }
    }

    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const Attempt &attempt = ladder[i];
        const std::uint64_t seed = i == 0 ? opts.seed : retry_rng.fork();

        // Stage guard for this rung; rung router options point at it,
        // which is how the routers, the incremental layer loop and the
        // resource limits see it.
        run::RunGuard stage_guard;
        transpiler::RouterOptions rung_router = attempt.router;
        if (opts.guard) {
            stage_guard = opts.guard->stageGuard(opts.stage_budget_ms);
            rung_router.guard = &stage_guard;
        }

        run::StageTrace trace;
        trace.stage = attempt.label;
        trace.retries = static_cast<int>(i);
        Stopwatch stage_clock;

        CompileResult result;
        try {
            result = attempt_fn(attempt.method, rung_router, seed);
        } catch (const run::CancelledError &e) {
            result.status = CompileStatus::Cancelled;
            result.failure_reason = e.what();
        } catch (const run::TimedOutError &e) {
            result.status = CompileStatus::TimedOut;
            result.failure_reason = e.what();
        } catch (const run::ResourceExceededError &e) {
            result.status = CompileStatus::ResourceExceeded;
            result.failure_reason = e.what();
        } catch (const std::exception &e) {
            result.status = CompileStatus::Failed;
            result.failure_reason = e.what();
        }
        trace.elapsed_ms = stage_clock.seconds() * 1e3;
        trace.outcome = outcomeOf(result.status);
        if (!result.ok())
            trace.detail = result.failure_reason;
        traces.push_back(trace);

        if (result.ok()) {
            // Success — annotate how we got here.
            result.diagnostics.insert(result.diagnostics.begin(),
                                      notes.begin(), notes.end());
            if (i > 0)
                result.diagnostics.push_back("succeeded via " +
                                             attempt.label);
            if (degraded) {
                const int usable = usableCount(map, opts.allowed_qubits);
                result.diagnostics.push_back(
                    usable < map.numQubits()
                        ? "device degraded: " + std::to_string(usable) +
                              "/" + std::to_string(map.numQubits()) +
                              " qubits usable on " + map.name()
                        : "device degraded: " + map.name() +
                              " lost couplings (all qubits still "
                              "usable)");
            }
            if (i > 0 || degraded)
                result.status = CompileStatus::Degraded;
            result.stages = traces;
            return result;
        }

        notes.push_back(attempt.label + " " +
                        run::stageOutcomeName(trace.outcome) + ": " +
                        result.failure_reason);

        if (result.status == CompileStatus::Cancelled)
            return interrupted(CompileStatus::Cancelled,
                               result.failure_reason);
        if (result.status == CompileStatus::TimedOut) {
            ++timed_out_rungs;
            if (!opts.guard || opts.guard->deadline().expired())
                return interrupted(CompileStatus::TimedOut,
                                   result.failure_reason);
        }
        if (result.status == CompileStatus::ResourceExceeded)
            ++guard_tripped_rungs;
    }

    // Ladder exhausted.  When every rung died the same resilience
    // death, surface that class instead of a generic failure.
    const int rungs = static_cast<int>(ladder.size());
    CompileStatus final_status = CompileStatus::Failed;
    if (guard_tripped_rungs == rungs)
        final_status = CompileStatus::ResourceExceeded;
    else if (timed_out_rungs == rungs)
        final_status = CompileStatus::TimedOut;
    return interrupted(final_status,
                       "all " + std::to_string(ladder.size()) +
                           " compile attempts failed; last error: " +
                           (notes.empty() ? std::string("none")
                                          : notes.back()));
}

/**
 * The pipeline both public entry points share: placement, ordering,
 * routing and per-rung verification down the retry ladder, then the
 * quality hook and the timing.  The entry points check the problem
 * size first; the argument checks they share are made here.
 */
CompileResult
compileQaoa(const CostHamiltonian &cost, const hw::CouplingMap &map,
            const QaoaCompileOptions &opts)
{
    QAOA_CHECK(opts.gammas.size() == opts.betas.size() &&
                   !opts.gammas.empty(),
               "need one (gamma, beta) pair per level");
    QAOA_CHECK(opts.method != Method::Vic || opts.calibration != nullptr,
               "VIC requires calibration data");

    Stopwatch clock;
    CompileResult result;
    if (!supportsProgram(map, opts, cost.num_qubits, &result))
        return result;

    const std::vector<verify::ZZTerm> expected =
        expectedInteractions(cost, opts.gammas);
    result = runLadder(
        map, opts,
        [&](Method method, const transpiler::RouterOptions &router,
            std::uint64_t seed) {
            Rng rng(seed);
            const Layout initial =
                chooseLayout(method, cost.zz, cost.num_qubits, map, rng,
                             opts.allowed_qubits);
            CompileOptions copts;
            copts.router = router;
            copts.decompose_to_basis = opts.decompose_to_basis;
            copts.peephole = opts.peephole;
            CompileResult attempt =
                method == Method::Ic || method == Method::Vic
                    ? compileIncremental(cost, map, opts, method, copts,
                                         initial, rng)
                    : compileOneShot(cost, map, opts, method, copts,
                                     initial, rng);
            verifyRung(attempt, map, opts, expected);
            return attempt;
        });
    checkQuality(result, map, opts);
    result.report.compile_seconds = clock.seconds();
    if (opts.analyze_quality && result.ok())
        result.quality.summary.compile_ms =
            result.report.compile_seconds * 1e3;
    return result;
}

} // namespace

CompileResult
compileQaoaIsing(const IsingModel &model, const hw::CouplingMap &map,
                 const QaoaCompileOptions &opts)
{
    const int n = model.numSpins();
    QAOA_CHECK(n >= 2, "Ising model too small");
    QAOA_CHECK(n <= map.numQubits(),
               "model has " << n << " spins, device " << map.name()
                            << " has " << map.numQubits() << " qubits");
    return compileQaoa(model.cost(), map, opts);
}

CompileResult
compileQaoaMaxcut(const graph::Graph &problem, const hw::CouplingMap &map,
                  const QaoaCompileOptions &opts)
{
    QAOA_CHECK(problem.numNodes() >= 2, "problem graph too small");
    QAOA_CHECK(problem.numNodes() <= map.numQubits(),
               "problem has " << problem.numNodes() << " nodes, device "
                              << map.name() << " has " << map.numQubits()
                              << " qubits");
    return compileQaoa(maxcutCost(problem), map, opts);
}

} // namespace qaoa::core
