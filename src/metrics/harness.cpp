#include "metrics/harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "opt/checkpoint.hpp"
#include "opt/grid_search.hpp"
#include "qaoa/problem.hpp"
#include "sim/statevector.hpp"

namespace qaoa::metrics {

namespace {

/** Rejects disconnected or edgeless draws (a MaxCut instance needs
 *  edges; connectivity keeps every qubit active as in the paper's
 *  randomly chosen instances). */
template <typename Generator>
std::vector<graph::Graph>
generateConnected(int count, std::uint64_t seed, Generator make)
{
    Rng rng(seed);
    std::vector<graph::Graph> out;
    int guard = 0;
    while (static_cast<int>(out.size()) < count) {
        QAOA_CHECK(++guard < count * 1000,
                   "could not generate enough connected instances");
        graph::Graph g = make(rng);
        if (g.numEdges() >= 1 && g.isConnected())
            out.push_back(std::move(g));
    }
    return out;
}

} // namespace

std::vector<graph::Graph>
erdosRenyiInstances(int n, double p, int count, std::uint64_t seed)
{
    return generateConnected(count, seed, [&](Rng &rng) {
        return graph::erdosRenyi(n, p, rng);
    });
}

std::vector<graph::Graph>
regularInstances(int n, int k, int count, std::uint64_t seed)
{
    return generateConnected(count, seed, [&](Rng &rng) {
        return graph::randomRegular(n, k, rng);
    });
}

std::vector<graph::Graph>
fig11Pool(int n, int count, std::uint64_t seed)
{
    std::vector<graph::Graph> pool;
    for (int i = 0; i < 6; ++i) {
        const double p = 0.1 + 0.1 * i;
        for (auto &g : erdosRenyiInstances(
                 n, p, count, seed + static_cast<std::uint64_t>(i)))
            pool.push_back(std::move(g));
    }
    for (int k = 3; k <= 8; ++k) {
        for (auto &g : regularInstances(
                 n, k, count, seed + 100 + static_cast<std::uint64_t>(k)))
            pool.push_back(std::move(g));
    }
    return pool;
}

MetricSeries
compileSeries(const std::vector<graph::Graph> &instances,
              const hw::CouplingMap &map, core::QaoaCompileOptions opts)
{
    // Derive every per-instance seed up front, in the serial iteration
    // order — the seed sequence (and hence each compiled circuit) is
    // identical no matter how many threads run the compiles below.
    Rng seeder(opts.seed);
    std::vector<std::uint64_t> seeds(instances.size());
    for (std::uint64_t &s : seeds)
        s = seeder.fork();

    // One child token for the whole sweep: an external cancel on the
    // caller's guard propagates in, a throwing instance trips it for
    // its siblings, and per-instance guards all share it.  The total
    // deadline and resource limits are the caller's, unchanged.
    const run::CancelToken series_token = opts.guard
                                              ? opts.guard->token().child()
                                              : run::CancelToken();
    const run::Deadline series_deadline =
        opts.guard ? opts.guard->deadline() : run::Deadline::never();
    const run::ResourceLimits series_limits =
        opts.guard ? opts.guard->limits() : run::ResourceLimits();
    std::vector<run::RunGuard> guards;
    guards.reserve(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i)
        guards.emplace_back(series_token, series_deadline, series_limits);

    std::vector<transpiler::CompileResult> results(instances.size());
    // Pre-mark every slot Cancelled: an instance the cancel-aware
    // parallel loop never starts (token tripped first) must not
    // surface as a default-constructed Ok result.  Instances that do
    // run overwrite their slot wholesale.
    for (transpiler::CompileResult &r : results) {
        r.status = transpiler::CompileStatus::Cancelled;
        r.failure_reason = "batch cancelled before this instance started";
    }
    par::parallelForTasks(
        instances.size(), series_token, [&](std::uint64_t i) {
            core::QaoaCompileOptions inst_opts = opts;
            inst_opts.seed = seeds[i];
            inst_opts.guard = &guards[i];
            results[i] =
                core::compileQaoaMaxcut(instances[i], map, inst_opts);
        });

    MetricSeries series;
    for (const transpiler::CompileResult &r : results) {
        series.depth.push_back(static_cast<double>(r.report.depth));
        series.gate_count.push_back(
            static_cast<double>(r.report.gate_count));
        series.compile_seconds.push_back(r.report.compile_seconds);
        series.swap_count.push_back(
            static_cast<double>(r.report.swap_count));
        series.status.push_back(r.status);
    }
    return series;
}

QaoaEvaluator::QaoaEvaluator(const core::CostHamiltonian &cost,
                             const run::RunGuard *guard)
    : guard_(guard), state_(cost.num_qubits, guard),
      cost_(core::costDiagonal(cost, guard))
{
    if (guard_)
        guard_->checkAllocation("cost diagonal phases",
                                sizeof(sim::Complex) *
                                    cost_.values.size());
    phases_.resize(cost_.values.size());
}

const sim::Statevector &
QaoaEvaluator::evolve(const std::vector<double> &gammas,
                      const std::vector<double> &betas)
{
    QAOA_CHECK(gammas.size() == betas.size(),
               "need one (gamma, beta) pair per level; got "
                   << gammas.size() << " gammas and " << betas.size()
                   << " betas");
    QAOA_CHECK(!gammas.empty(), "QAOA needs at least one level");
    auto poll = [&] {
        if (guard_)
            guard_->poll("qaoa evaluator sweep");
    };
    poll();
    state_.setUniform();
    for (std::size_t level = 0; level < gammas.size(); ++level) {
        for (std::size_t k = 0; k < phases_.size(); ++k) {
            const double phi = gammas[level] * cost_.values[k];
            phases_[k] = sim::Complex{std::cos(phi), std::sin(phi)};
        }
        poll();
        state_.applyIndexedPhases(cost_.index, phases_);
        for (int q = 0; q < state_.numQubits(); ++q) {
            poll();
            state_.apply(circuit::Gate::rx(q, 2.0 * betas[level]));
        }
    }
    return state_;
}

double
QaoaEvaluator::expectation(const std::vector<double> &gammas,
                           const std::vector<double> &betas)
{
    evolve(gammas, betas);
    if (guard_)
        guard_->poll("qaoa evaluator sweep");
    return state_.expectation(cost_);
}

double
exactExpectedCut(const graph::Graph &problem,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas,
                 const run::RunGuard *guard)
{
    return QaoaEvaluator(core::maxcutCost(problem), guard)
        .expectation(gammas, betas);
}

P1Parameters
optimizeP1(const graph::Graph &problem)
{
    return optimizeP1Checkpointed(problem, {}).params;
}

std::string
problemHash(const graph::Graph &problem)
{
    // FNV-1a over node count and the weighted edge list.  Same byte
    // stream as before the common/hash.hpp refactor, so pre-existing
    // checkpoints keep their hashes.
    Fnv1a h;
    h.u64(static_cast<std::uint64_t>(problem.numNodes()));
    for (const graph::Edge &e : problem.edges()) {
        h.u64(static_cast<std::uint64_t>(e.u));
        h.u64(static_cast<std::uint64_t>(e.v));
        h.f64(e.weight);
    }
    return h.hex();
}

P1Run
optimizeP1Checkpointed(const graph::Graph &problem,
                       const OptimizeP1Options &options)
{
    constexpr double pi = std::numbers::pi;
    const std::vector<opt::GridAxis> axes{{0.0, 2.0 * pi, 13},
                                          {0.0, pi, 9}};
    const std::string hash = problemHash(problem);

    opt::OptCheckpoint cp;
    bool resumed = false;
    if (options.resume && !options.checkpoint_path.empty() &&
        opt::loadCheckpointFile(options.checkpoint_path, cp)) {
        QAOA_CHECK(cp.problem_hash == hash,
                   "checkpoint " << options.checkpoint_path
                                 << " belongs to problem "
                                 << cp.problem_hash << ", not " << hash);
        resumed = true;
    } else {
        cp = opt::OptCheckpoint{};
        cp.problem_hash = hash;
    }

    // Maximize expected cut == minimize its negation.  CPHASE(γ) and the
    // RX(2β) mixer make the landscape 2π-periodic in γ and π-periodic in
    // β.  The cost diagonal is built once, for every evaluation.
    QaoaEvaluator evaluator(core::maxcutCost(problem), options.guard);
    opt::Objective objective = [&](const std::vector<double> &x) {
        return -evaluator.expectation({x[0]}, {x[1]});
    };

    opt::OptHooks hooks;
    hooks.guard = options.guard;
    hooks.on_progress = [&]() {
        if (!options.checkpoint_path.empty())
            opt::saveCheckpointFile(options.checkpoint_path, cp);
    };
    const opt::OptResult best =
        opt::gridThenNelderMeadResume(objective, axes, {}, cp, hooks);

    QAOA_CHECK(best.x.size() == 2,
               "p=1 checkpoint finished with " << best.x.size()
                                               << " parameters");
    P1Run run;
    run.params.gamma = best.x[0];
    run.params.beta = best.x[1];
    run.params.expected_cut = -best.value;
    run.evaluations = best.evaluations;
    run.resumed = resumed;
    return run;
}

} // namespace qaoa::metrics
