/**
 * @file
 * p1-optimize: one caller thread runs metrics::optimizeP1Checkpointed
 * (no checkpoint file) on seeded unweighted graphs, dense and sparse,
 * on one statevector thread (see kP1Threads).  Loads sim/statevector,
 * metrics::exactExpectedCut and opt/; no compile pass runs.
 *
 * Output check: the expected cut at the returned (gamma, beta) must
 * equal the analytic p=1 MaxCut formula of Wang, Hadfield, Jiang and
 * Rieffel (PRA 97, 022304, 2018) and stay at or below the brute-force
 * MaxCut.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/maxcut.hpp"
#include "metrics/harness.hpp"
#include "phases.hpp"
#include "sim/statevector.hpp"

namespace qaoa::bench {

namespace {

/**
 * Statevector threads.  One, not min(nproc, 4): at these sizes four
 * threads gain little (an n = 16 evaluation takes ~34 ms on one thread
 * and ~29 ms on four), and a parallel sweep waits for whichever of the
 * shared host's CPUs is slowest, so four threads measured the host's
 * scheduling rather than the simulator.  With one thread the process
 * CPU clock times the optimisation exactly.
 */
constexpr int kP1Threads = 1;

struct Cell
{
    int n = 0;
    bool regular = false; ///< 3-regular (sparse) or ER p = 0.5 (dense).
};

/**
 * Dense n and sparse n + 1 cost the same order per evaluation (|E|
 * sweeps over 2^n amplitudes; the sparse cell ~1.4x more), so neither
 * cell dominates the run's time.
 */
std::vector<Cell>
cellsFor(Role role)
{
    if (role == Role::Primary)
        return {{13, false}, {14, true}};
    return {{11, false}, {12, true}};
}

graph::Graph
drawGraph(const Cell &cell, std::uint64_t seed)
{
    return cell.regular ? metrics::regularInstances(cell.n, 3, 1, seed)[0]
                        : erdosRenyiExactEdges(cell.n, 0.5, seed);
}

/**
 * <C> of p=1 QAOA-MaxCut on an unweighted graph (Wang et al. 2018,
 * Theorem 1), in that paper's convention U_C = exp(-i g C),
 * U_B = exp(-i b B).  The repository applies CPHASE(gamma) =
 * exp(+i gamma C_uv) and RX(2 beta) = exp(-i beta X), so g = -gamma;
 * pinConvention() checks that on a triangle.
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

/** The formula must match the simulator on a triangle with the pinned
 *  sign, and must not match with the opposite one. */
bool
pinConvention()
{
    graph::Graph triangle(3);
    triangle.addEdge(0, 1);
    triangle.addEdge(1, 2);
    triangle.addEdge(0, 2);
    const double gamma = 0.61, beta = 0.23;
    const double sim = metrics::exactExpectedCut(triangle, {gamma}, {beta});
    return std::abs(analyticP1(triangle, gamma, beta) - sim) < 1e-12 &&
           std::abs(analyticP1(triangle, -gamma, beta) - sim) > 1e-3;
}

/** ns per amplitude of one single-gate sweep, median of @p reps. */
double
kernelNsPerAmp(int n, int reps, Rng &rng, Tracer &tracer,
               const std::string &span, std::uint64_t request,
               circuit::Gate (*make)(int, int, Rng &))
{
    sim::Statevector state(n);
    for (int q = 0; q < n; ++q)
        state.apply(circuit::Gate::h(q));
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const circuit::Gate gate = make(n, r, rng);
        const double t0 = tracer.now();
        state.apply(gate);
        const double t1 = tracer.now();
        tracer.add(span, t0, t1, -1, request);
        ns.push_back((t1 - t0) * 1e9 / std::ldexp(1.0, n));
    }
    return median(ns);
}

class P1Phase final : public Phase
{
  public:
    P1Phase(const PhasePlan &plan, Tracer *tracer)
        : plan_(plan), tracer_(tracer), cells_(cellsFor(plan.role)),
          rng_(plan.seed)
    {
        next_ = drawNext();
    }

    /** The convention pin. */
    void setUp(int) override
    {
        ++out_.attempted;
        if (!pinConvention())
            out_.fail("p=1 formula convention does not match the "
                      "simulator on a triangle");
    }

    /**
     * Closed loop; the cells alternate over the whole run (rounds
     * included), so their counts differ by at most one.  An
     * optimisation starts only when at most half of the last one would
     * run past the budget; what a round over- or underspends carries
     * over to the next, so a round shorter than one optimisation still
     * gets its share.
     */
    void measure(double seconds) override
    {
        par::setThreadCount(kP1Threads);
        budget_s_ += seconds;
        while (budget_s_ > 0.5 * last_s_) {
            const double t0 = nowSeconds();
            optimize(next_);
            last_s_ = nowSeconds() - t0;
            budget_s_ -= last_s_;
            next_ = drawNext();
        }
    }

    void finish(PhaseResult &out) override
    {
        out_.record["p1_optimizations"] = std::to_string(latency_s_.size());
        for (const auto &[n, count] : per_n_)
            out_.record["p1_optimizations_n" + std::to_string(n)] =
                std::to_string(count);
        if (!tracer_) {
            // The cells differ in cost (the sparse one by ~1.4x), so a
            // statistic pooled over both would move with the cell
            // counts: each is taken per cell, then their geomean.  Both
            // metrics are already at nominal host speed (see optimize()).
            std::vector<double> p50, rate, measured_p50, measured_rate;
            for (const auto &[n, c] : by_n_) {
                p50.push_back(median(c.nominal_s));
                rate.push_back(c.evaluations / c.nominal_busy_s);
                measured_p50.push_back(median(c.measured_s));
                measured_rate.push_back(c.evaluations / c.measured_busy_s);
            }
            out_.set("p1_s_p50", geomean(p50), "s");
            out_.set("p1_evals_per_s", geomean(rate), "1/s");
            out_.record["measured.p1_s_p50"] = jsonNumber(geomean(measured_p50));
            out_.record["measured.p1_evals_per_s"] =
                jsonNumber(geomean(measured_rate));
            out = std::move(out_);
            return;
        }
        // Single-gate statevector sweeps at the workload's largest n.
        Tracer &tracer = *tracer_;
        const int n = cells_.back().n;
        Rng kr(plan_.seed ^ 0x6a7eULL);
        const std::uint64_t kreq = ++request_;
        out_.set("sim.cphase_ns_per_amp",
                 kernelNsPerAmp(n, 64, kr, tracer, "sim.apply_cphase", kreq,
                                [](int nq, int, Rng &r) {
                                    const int a = r.uniformInt(0, nq - 1);
                                    const int b =
                                        (a + r.uniformInt(1, nq - 1)) % nq;
                                    return circuit::Gate::cphase(a, b, 0.37);
                                }),
                 "ns");
        out_.set("sim.rx_ns_per_amp",
                 kernelNsPerAmp(n, 64, kr, tracer, "sim.apply_rx", kreq,
                                [](int nq, int r, Rng &) {
                                    return circuit::Gate::rx(r % nq, 0.41);
                                }),
                 "ns");
        out_.set("sim.h_ns_per_amp",
                 kernelNsPerAmp(n, 64, kr, tracer, "sim.apply_h", kreq,
                                [](int nq, int r, Rng &) {
                                    return circuit::Gate::h(r % nq);
                                }),
                 "ns");
        out_.set("metrics.expected_cut_ms",
                 mean(spanDurationsMs(tracer, "metrics.expected_cut")), "ms");
        out_.set("opt.evaluations", mean(evaluations_), "count");
        out_.set("opt.overhead_ms", median(overhead_ms_), "ms");
        out = std::move(out_);
    }

  private:
    graph::Graph drawNext()
    {
        return drawGraph(cells_[cell_++ % cells_.size()], rng_.fork());
    }

    void optimize(const graph::Graph &g)
    {
        const std::uint64_t request = ++request_;
        // The host's speed changes between consecutive optimisations
        // (the same n = 11 work took 0.09 s and 0.16 s a second apart),
        // so each untraced one is brought to nominal host speed by the
        // reference passes right before and right after it.
        const double reference0 = tracer_ ? 0.0 : referenceKernelMs();
        const double t0 = cpuSeconds();
        int root = -1;
        if (tracer_)
            root = tracer_->begin("metrics.optimize_p1", -1, request);
        const metrics::P1Run run = metrics::optimizeP1Checkpointed(g, {});
        if (tracer_)
            tracer_->end(root);
        const double elapsed = cpuSeconds() - t0;
        const double reference =
            tracer_ ? kReferenceNominalMs
                    : 0.5 * (reference0 + referenceKernelMs());
        latency_s_.push_back(elapsed);
        CellTimes &c = by_n_[g.numNodes()];
        c.measured_s.push_back(elapsed);
        c.nominal_s.push_back(elapsed * kReferenceNominalMs / reference);
        c.evaluations += run.evaluations;
        c.measured_busy_s += elapsed;
        c.nominal_busy_s += c.nominal_s.back();
        ++per_n_[g.numNodes()];
        evaluations_.push_back(run.evaluations);
        ++out_.attempted;

        const double analytic =
            analyticP1(g, run.params.gamma, run.params.beta);
        const double best = graph::maxCutBruteForce(g).value;
        if (std::abs(run.params.expected_cut - analytic) > 1e-9 ||
            run.params.expected_cut > best + 1e-9)
            out_.fail("p1 check n=" + std::to_string(g.numNodes()) +
                      ": expected_cut " +
                      std::to_string(run.params.expected_cut) +
                      " analytic " + std::to_string(analytic) + " maxcut " +
                      std::to_string(best));
        if (!tracer_)
            return;

        // Objective cost at this graph, timed with the same public call
        // the optimizer makes; the fastest of five is closest to the
        // optimizer's back-to-back calls.  CPU clock, as for elapsed.
        std::vector<double> cut_ms;
        for (int k = 0; k < 5; ++k) {
            ScopedSpan s(tracer_, "metrics.expected_cut", -1, request);
            const double t = cpuSeconds();
            const double v = metrics::exactExpectedCut(
                g, {run.params.gamma}, {run.params.beta});
            cut_ms.push_back((cpuSeconds() - t) * 1e3);
            if (v != run.params.expected_cut)
                out_.fail("exactExpectedCut not repeatable");
        }
        overhead_ms_.push_back(
            elapsed * 1e3 -
            run.evaluations * *std::min_element(cut_ms.begin(), cut_ms.end()));
    }

    PhasePlan plan_;
    Tracer *tracer_;
    std::vector<Cell> cells_;
    Rng rng_;
    PhaseResult out_;
    graph::Graph next_;
    std::size_t cell_ = 0;
    std::uint64_t request_ = 2u << 20;
    std::vector<double> latency_s_, evaluations_, overhead_ms_;
    /** One cell's optimisations: CPU seconds as measured and at nominal
     *  host speed. */
    struct CellTimes
    {
        std::vector<double> measured_s, nominal_s;
        double evaluations = 0.0;
        double measured_busy_s = 0.0, nominal_busy_s = 0.0;
    };
    std::map<int, CellTimes> by_n_; ///< By n.
    std::map<int, int> per_n_; ///< Optimisations per cell (by n).
    double budget_s_ = 0.0; ///< Unspent measuring time, carried over.
    double last_s_ = 0.0;   ///< The last optimisation's time.
};

} // namespace

std::unique_ptr<Phase>
makeP1Phase(const PhasePlan &plan, Tracer *tracer)
{
    return std::make_unique<P1Phase>(plan, tracer);
}

} // namespace qaoa::bench
