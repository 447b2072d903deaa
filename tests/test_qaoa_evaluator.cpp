/**
 * @file
 * Oracle tests for the noiseless QAOA evaluator (metrics::QaoaEvaluator
 * on core::costDiagonal) behind metrics::exactExpectedCut and
 * metrics::optimizeP1.
 *
 * The oracle is the gate-by-gate simulation of the logical circuit:
 * Statevector::apply(buildQaoaCircuit(...)), then Σ_z p(z)·C(z) with
 * graph::cutValue.  The evaluator must match it across p = 1..3,
 * weighted graphs (zero and negative weights included) and registers
 * on both sides of par::kSerialCutoff, bit-identically at 1, 2 and 8
 * threads; on an Ising cost with fields the evolved states must agree.
 * A second, independent anchor is the closed-form p = 1
 * MaxCut expectation of Wang, Hadfield, Jiang and Rieffel (PRA 97,
 * 022304, 2018), which reaches registers where the oracle is slow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>
#include <string>
#include <vector>

#include "common/guard.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "metrics/harness.hpp"
#include "opt/grid_search.hpp"
#include "qaoa/problem.hpp"
#include "sim/statevector.hpp"

namespace qaoa::metrics {
namespace {

constexpr double kPi = std::numbers::pi;

/** ⟨C⟩ by gate-by-gate simulation of the logical circuit. */
double
oracleExpectedCut(const graph::Graph &g, const std::vector<double> &gammas,
                  const std::vector<double> &betas)
{
    sim::Statevector state(g.numNodes());
    state.apply(core::buildQaoaCircuit(g, gammas, betas, false));
    const std::vector<double> probs = state.probabilities();
    double e = 0.0;
    for (std::uint64_t z = 0; z < probs.size(); ++z)
        e += probs[z] * graph::cutValue(g, z);
    return e;
}

double
absWeightSum(const graph::Graph &g)
{
    double s = 0.0;
    for (const graph::Edge &e : g.edges())
        s += std::abs(e.weight);
    return s;
}

/** Connected G(n, p) draw with unit weights. */
graph::Graph
unweightedGraph(int n, std::uint64_t seed)
{
    return erdosRenyiInstances(n, 0.4, 1, seed)[0];
}

/** The same draw with weights in [-1, 2), its first edge at weight 0
 *  and its second at a negative weight. */
graph::Graph
weightedGraph(int n, std::uint64_t seed)
{
    const graph::Graph base = unweightedGraph(n, seed);
    Rng rng(seed ^ 0x5eedULL);
    graph::Graph g(n);
    for (std::size_t i = 0; i < base.edges().size(); ++i) {
        const graph::Edge &e = base.edges()[i];
        double w = rng.uniformReal(-1.0, 2.0);
        if (i == 0)
            w = 0.0;
        else if (i == 1)
            w = -0.75;
        g.addEdge(e.u, e.v, w);
    }
    return g;
}

std::vector<double>
randomAngles(int p, double hi, Rng &rng)
{
    std::vector<double> a(static_cast<std::size_t>(p));
    for (double &x : a)
        x = rng.uniformReal(-hi, hi);
    return a;
}

TEST(QaoaEvaluator, MatchesGateByGateOracle)
{
    Rng rng(2611);
    for (int n = 3; n <= 15; ++n) {
        for (bool weighted : {false, true}) {
            const std::uint64_t seed = 100 + static_cast<std::uint64_t>(n);
            const graph::Graph g =
                weighted ? weightedGraph(n, seed) : unweightedGraph(n, seed);
            const double tol = 1e-12 * std::max(1.0, absWeightSum(g));
            for (int p = 1; p <= 3; ++p) {
                const auto gammas = randomAngles(p, kPi, rng);
                const auto betas = randomAngles(p, kPi / 2.0, rng);
                EXPECT_NEAR(exactExpectedCut(g, gammas, betas),
                            oracleExpectedCut(g, gammas, betas), tol)
                    << "n=" << n << " weighted=" << weighted << " p=" << p;
            }
        }
    }
}

TEST(QaoaEvaluator, BitIdenticalAcrossThreadCounts)
{
    // n = 15 and 16 put every sweep above par::kSerialCutoff, so the
    // chunked parallel paths run; n = 9 stays inline.
    Rng rng(77);
    for (int n : {9, 15, 16}) {
        const graph::Graph g = weightedGraph(n, 300 + n);
        const auto gammas = randomAngles(2, kPi, rng);
        const auto betas = randomAngles(2, kPi / 2.0, rng);
        std::vector<double> values;
        for (int threads : {1, 2, 8}) {
            par::setThreadCount(threads);
            values.push_back(exactExpectedCut(g, gammas, betas));
        }
        par::setThreadCount(0);
        EXPECT_EQ(values[0], values[1]) << "n=" << n;
        EXPECT_EQ(values[0], values[2]) << "n=" << n;
    }
}

/** Ising-form cost: the ZZ terms of a G(n, 0.4) draw with weights in
 *  [-2, 2), and fields in [-1, 1) on every qubit but the last. */
core::CostHamiltonian
isingCost(int n, std::uint64_t seed)
{
    Rng rng(seed);
    core::CostHamiltonian cost{n, {}, std::vector<double>(n, 0.0)};
    const graph::Graph g = unweightedGraph(n, seed);
    for (const graph::Edge &e : g.edges())
        cost.zz.push_back({e.u, e.v, rng.uniformReal(-2.0, 2.0)});
    for (int q = 0; q + 1 < n; ++q)
        cost.z[static_cast<std::size_t>(q)] = rng.uniformReal(-1.0, 1.0);
    return cost;
}

TEST(QaoaEvaluator, IsingStateMatchesGateByGateOracle)
{
    Rng rng(5150);
    for (int n : {3, 6, 9, 12, 15}) {
        const core::CostHamiltonian cost = isingCost(n, 700 + n);
        QaoaEvaluator evaluator(cost);
        for (int p = 1; p <= 3; ++p) {
            const auto gammas = randomAngles(p, kPi, rng);
            const auto betas = randomAngles(p, kPi / 2.0, rng);
            const sim::Statevector &got = evaluator.evolve(gammas, betas);
            sim::Statevector want(n);
            want.apply(core::buildQaoaCircuit(cost, gammas, betas, false));
            EXPECT_NEAR(got.overlap(want), 1.0, 1e-12)
                << "n=" << n << " p=" << p;
            // θ carries the RZ convention exactly, so not even a global
            // phase separates the two.
            double worst = 0.0;
            for (std::uint64_t z = 0; z < (1ULL << n); ++z)
                worst = std::max(worst, std::abs(got.amplitude(z) -
                                                 want.amplitude(z)));
            EXPECT_LT(worst, 1e-12) << "n=" << n << " p=" << p;
        }
    }
}

TEST(QaoaEvaluator, ReuseGivesTheBitsOfAFreshEvaluator)
{
    const core::CostHamiltonian cost = isingCost(11, 31);
    QaoaEvaluator reused(cost);
    (void)reused.expectation({0.4, -1.1}, {0.2, 0.9});
    EXPECT_EQ(reused.expectation({0.7}, {-0.3}),
              QaoaEvaluator(cost).expectation({0.7}, {-0.3}));
}

TEST(QaoaEvaluator, RejectsMismatchedAngles)
{
    QaoaEvaluator evaluator(core::maxcutCost(graph::cycleGraph(4)));
    EXPECT_THROW(evaluator.expectation({0.1, 0.2}, {0.3}),
                 std::runtime_error);
    EXPECT_THROW(evaluator.expectation({}, {}), std::runtime_error);
}

TEST(CostDiagonal, IsTheCutValueForMaxcut)
{
    for (bool weighted : {false, true}) {
        const graph::Graph g =
            weighted ? weightedGraph(10, 12) : unweightedGraph(10, 12);
        const sim::DiagonalTable table = core::costDiagonal(
            core::maxcutCost(g));
        ASSERT_EQ(table.index.size(), 1u << 10);
        EXPECT_TRUE(std::adjacent_find(table.values.begin(),
                                       table.values.end(),
                                       std::greater_equal<double>()) ==
                    table.values.end());
        const double tol = weighted ? 1e-12 * absWeightSum(g) : 0.0;
        for (std::uint64_t z = 0; z < table.index.size(); ++z)
            EXPECT_NEAR(table.values[table.index[z]], graph::cutValue(g, z),
                        tol)
                << "z=" << z;
        if (!weighted) {
            EXPECT_LE(table.values.size(),
                      static_cast<std::size_t>(g.numEdges()) + 1);
        }
    }
}

TEST(CostDiagonal, FieldsFollowTheRzConvention)
{
    // RZ(γh) = diag(e^{-iγh/2}, e^{iγh/2}): h·(z_q - 1/2) per field.
    const core::CostHamiltonian cost = isingCost(9, 5);
    const sim::DiagonalTable table = core::costDiagonal(cost);
    for (std::uint64_t z = 0; z < table.index.size(); ++z) {
        double want = 0.0;
        for (const core::ZZOp &op : cost.zz)
            if (((z >> op.a) ^ (z >> op.b)) & 1ULL)
                want += op.weight;
        for (std::size_t q = 0; q < cost.z.size(); ++q)
            want += cost.z[q] * (((z >> q) & 1ULL) ? 0.5 : -0.5);
        EXPECT_NEAR(table.values[table.index[z]], want, 1e-12) << z;
    }
}

// ------------------------------------------------------ guard discipline

TEST(QaoaEvaluator, TightAllocationLimitThrowsBeforeAllocating)
{
    const graph::Graph g = unweightedGraph(12, 3);
    run::ResourceLimits limits;
    limits.max_statevector_bytes = 16ULL * (1ULL << 12) - 1;
    const run::RunGuard tight(run::CancelToken(), run::Deadline::never(),
                              limits);
    // The state is vetted first, so nothing was allocated when it throws.
    try {
        QaoaEvaluator evaluator(core::maxcutCost(g), &tight);
        ADD_FAILURE() << "no ResourceExceededError";
    } catch (const run::ResourceExceededError &e) {
        EXPECT_NE(std::string(e.what()).find("statevector"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(exactExpectedCut(g, {0.3}, {0.2}, &tight),
                 run::ResourceExceededError);
    // Every other buffer is smaller than the state, so a limit the state
    // fits under admits the whole evaluator.
    limits.max_statevector_bytes = 16ULL * (1ULL << 12);
    const run::RunGuard fits(run::CancelToken(), run::Deadline::never(),
                             limits);
    EXPECT_EQ(exactExpectedCut(g, {0.3}, {0.2}, &fits),
              exactExpectedCut(g, {0.3}, {0.2}));
}

TEST(QaoaEvaluator, PollsOncePerSweep)
{
    // n = 6, p = 2: the table build, |+...+>, per level one phase sweep
    // and six RX sweeps, and the final reduction: 1 + 1 + 2·7 + 1 = 17.
    const graph::Graph g = unweightedGraph(6, 8);
    auto run = [&](std::uint64_t fuse) {
        run::CancelToken token;
        token.cancelAfter(fuse);
        const run::RunGuard guard(token, run::Deadline::never());
        QaoaEvaluator evaluator(core::maxcutCost(g), &guard);
        return evaluator.expectation({0.3, 0.9}, {0.2, -0.4});
    };
    for (std::uint64_t fuse : {0ULL, 1ULL, 2ULL, 9ULL, 16ULL})
        EXPECT_THROW(run(fuse), run::CancelledError) << "fuse=" << fuse;
    EXPECT_EQ(run(17), exactExpectedCut(g, {0.3, 0.9}, {0.2, -0.4}));
}

// ------------------------------------------------------ analytic anchor

/**
 * p = 1 MaxCut ⟨C⟩ on an unweighted graph (Wang et al. 2018, Thm. 1),
 * in that paper's convention U_C = exp(-i g C), U_B = exp(-i b B).
 * The library applies CPHASE(γ) = exp(+i γ C_uv) and RX(2β) =
 * exp(-i β X), so g = -γ; the triangle test pins that sign.
 */
double
analyticP1(const graph::Graph &g, double gamma, double beta)
{
    const double c = std::cos(-gamma);
    const double s = std::sin(-gamma);
    const double c2 = std::cos(-2.0 * gamma);
    double total = 0.0;
    for (const graph::Edge &e : g.edges()) {
        const int du = g.degree(e.u) - 1;
        const int dv = g.degree(e.v) - 1;
        int triangles = 0;
        for (int w : g.neighbors(e.u))
            if (w != e.v && g.hasEdge(w, e.v))
                ++triangles;
        total += 0.5 +
                 0.25 * std::sin(4.0 * beta) * s *
                     (std::pow(c, du) + std::pow(c, dv)) -
                 0.25 * std::pow(std::sin(2.0 * beta), 2) *
                     std::pow(c, du + dv - 2 * triangles) *
                     (1.0 - std::pow(c2, triangles));
    }
    return total;
}

TEST(QaoaEvaluator, AnalyticConventionPinnedOnTriangle)
{
    const graph::Graph triangle = graph::completeGraph(3);
    const double gamma = 0.61, beta = 0.23;
    const double sim = exactExpectedCut(triangle, {gamma}, {beta});
    EXPECT_LT(std::abs(analyticP1(triangle, gamma, beta) - sim), 1e-12);
    EXPECT_GT(std::abs(analyticP1(triangle, -gamma, beta) - sim), 1e-3);
}

TEST(QaoaEvaluator, MatchesAnalyticP1UpTo18Nodes)
{
    std::vector<graph::Graph> graphs;
    // Triangle-free: cycles, grids.
    graphs.push_back(graph::cycleGraph(7));
    graphs.push_back(graph::gridGraph(3, 4));
    graphs.push_back(graph::gridGraph(3, 6));
    // With triangles: dense G(n, p) and complete graphs.
    graphs.push_back(graph::completeGraph(6));
    graphs.push_back(erdosRenyiInstances(10, 0.5, 1, 4)[0]);
    graphs.push_back(erdosRenyiInstances(14, 0.3, 1, 5)[0]);
    graphs.push_back(erdosRenyiInstances(18, 0.2, 1, 6)[0]);
    graphs.push_back(regularInstances(16, 3, 1, 7)[0]);
    Rng rng(4242);
    for (const graph::Graph &g : graphs) {
        for (int k = 0; k < 3; ++k) {
            const double gamma = rng.uniformReal(-kPi, kPi);
            const double beta = rng.uniformReal(-kPi / 2.0, kPi / 2.0);
            EXPECT_NEAR(exactExpectedCut(g, {gamma}, {beta}),
                        analyticP1(g, gamma, beta), 1e-10)
                << "n=" << g.numNodes() << " |E|=" << g.numEdges();
        }
    }
}

// ----------------------------------------------------------- optimizeP1

TEST(QaoaEvaluator, OptimizeP1MatchesGateByGateSearch)
{
    // The same 13 x 9 grid and Nelder–Mead polish as optimizeP1, on the
    // gate-by-gate objective.  At p = 1 every graph has
    // ⟨C⟩(γ, β) = ⟨C⟩(2π - γ, π - β) = ⟨C⟩(γ, β + π/2), and the grid
    // holds all four images of an interior point, so no grid winner is
    // unique: it ties with at least three others (regular graphs add
    // more exact ties).  The last ulp of the objective picks one, and
    // the polish then ends in that point's optimum.  So the search must
    // land, within 1e-9, where the gate-by-gate polish from one of the
    // tied grid points lands.
    const std::vector<opt::GridAxis> axes{{0.0, 2.0 * kPi, 13},
                                          {0.0, kPi, 9}};
    for (int n : {8, 10}) {
        std::vector<graph::Graph> graphs =
            erdosRenyiInstances(n, 0.5, 3, 900 + n);
        graphs.push_back(regularInstances(n, 3, 1, 950 + n)[0]);
        for (const graph::Graph &g : graphs) {
            const opt::Objective oracle =
                [&](const std::vector<double> &x) {
                    return -oracleExpectedCut(g, {x[0]}, {x[1]});
                };
            std::vector<std::pair<double, std::vector<double>>> grid;
            for (int j = 0; j < axes[1].points; ++j)
                for (int i = 0; i < axes[0].points; ++i) {
                    const std::vector<double> x{
                        axes[0].hi * i / (axes[0].points - 1),
                        axes[1].hi * j / (axes[1].points - 1)};
                    grid.emplace_back(oracle(x), x);
                }
            const double best =
                std::min_element(grid.begin(), grid.end())->first;
            const P1Parameters got = optimizeP1(g);
            int tied = 0;
            bool matched = false;
            for (const auto &[value, x] : grid) {
                if (value > best + 1e-9)
                    continue;
                ++tied;
                opt::OptResult want = opt::nelderMead(oracle, x);
                if (value < want.value) {
                    want.x = x;
                    want.value = value;
                }
                matched = matched ||
                          (std::abs(got.gamma - want.x[0]) <= 1e-9 &&
                           std::abs(got.beta - want.x[1]) <= 1e-9 &&
                           std::abs(got.expected_cut + want.value) <= 1e-9);
            }
            EXPECT_GE(tied, 4);
            EXPECT_TRUE(matched) << "n=" << n << " |E|=" << g.numEdges()
                                 << " tied grid points: " << tied;
        }
    }
}

} // namespace
} // namespace qaoa::metrics
