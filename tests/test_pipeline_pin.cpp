/** @file
 * Output pin of the QAOA compile pipeline.
 *
 * Hashes every observable output of compileQaoaMaxcut() and
 * compileQaoaIsing() over a fixed matrix of problems, devices, fault
 * masks, depths and finishing options, and asserts one FNV-1a digest
 * per method.  Any change to a compiled circuit, a layout, a report
 * count, a status, a diagnostic, a stage trace or the quality summary
 * moves the digest, so a refactor of the pipeline that claims to keep
 * outputs byte-identical is checked here.  Wall-clock fields
 * (compile_seconds, compile_ms, stage elapsed_ms) are left out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hardware/calibration.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ising.hpp"

namespace qaoa::core {
namespace {

using transpiler::CompileResult;

/** One problem of the matrix: a MaxCut graph or an Ising model. */
struct Problem
{
    std::optional<graph::Graph> graph;
    std::optional<IsingModel> model;
};

std::vector<Problem>
pinProblems()
{
    std::vector<Problem> problems;
    Rng rng(2024);

    // MaxCut: unweighted 3-regular, weighted Erdős–Rényi, and a ring
    // with chords that carries one zero-weight edge.
    problems.push_back({graph::randomRegular(8, 3, rng), std::nullopt});
    graph::Graph weighted = graph::erdosRenyi(9, 0.4, rng);
    graph::Graph reweighted(weighted.numNodes());
    for (const graph::Edge &e : weighted.edges())
        reweighted.addEdge(e.u, e.v, rng.uniformReal(0.25, 2.0));
    problems.push_back({reweighted, std::nullopt});
    graph::Graph zero = graph::cycleGraph(7);
    zero.addEdge(0, 3, 0.0);
    zero.addEdge(2, 5, 1.5);
    problems.push_back({zero, std::nullopt});

    // Ising: a weighted MaxCut encoding, a vertex cover (linear
    // fields) and a number partition (dense couplings).
    graph::Graph er = graph::erdosRenyi(8, 0.45, rng);
    graph::Graph er_weighted(er.numNodes());
    for (const graph::Edge &e : er.edges())
        er_weighted.addEdge(e.u, e.v, rng.uniformReal(0.5, 1.5));
    problems.push_back({std::nullopt, maxcutToIsing(er_weighted)});
    problems.push_back(
        {std::nullopt, vertexCoverToIsing(graph::randomRegular(8, 3, rng),
                                          2.5)});
    problems.push_back(
        {std::nullopt, partitionToIsing({3.0, 1.0, 4.0, 1.5, 5.0, 2.0})});
    return problems;
}

/** A device of the matrix with its random calibration, healthy or
 *  seen through a fault mask. */
struct PinDevice
{
    hw::CouplingMap base;
    hw::CalibrationData calib;
    std::unique_ptr<hw::FaultInjector> faults;

    PinDevice(hw::CouplingMap map, std::uint64_t seed, bool faulty)
        : base(std::move(map)), calib(base)
    {
        Rng rng(seed);
        calib = hw::randomCalibration(base, rng);
        if (faulty) {
            hw::FaultSpec spec;
            spec.dead_qubits = {3};
            spec.edge_fault_rate = 0.08;
            spec.seed = seed;
            faults = std::make_unique<hw::FaultInjector>(base, spec, &calib);
        }
    }

    const hw::CouplingMap &map() const
    {
        return faults ? faults->map() : base;
    }

    void
    configure(QaoaCompileOptions &opts) const
    {
        opts.calibration = faults ? &faults->calibration() : &calib;
        opts.allowed_qubits = faults ? &faults->usable() : nullptr;
        opts.device_degraded = faults != nullptr;
    }
};

void
hashResult(Fnv1a &h, const CompileResult &r)
{
    h.str(circuit::toQasm(r.compiled));
    h.str(circuit::toQasm(r.physical));
    for (const transpiler::Layout *layout :
         {&r.initial_layout, &r.final_layout}) {
        h.u64(layout->logToPhys().size());
        for (int p : layout->logToPhys())
            h.u64(static_cast<std::uint64_t>(p));
    }
    h.u64(static_cast<std::uint64_t>(r.report.depth));
    h.u64(static_cast<std::uint64_t>(r.report.gate_count));
    h.u64(static_cast<std::uint64_t>(r.report.cx_count));
    h.u64(static_cast<std::uint64_t>(r.report.swap_count));
    h.u64(static_cast<std::uint64_t>(r.status));
    h.str(r.failure_reason);
    h.u64(r.diagnostics.size());
    for (const std::string &d : r.diagnostics)
        h.str(d);
    h.u64(r.stages.size());
    for (const run::StageTrace &s : r.stages) {
        h.str(s.stage);
        h.str(s.detail);
    }
    h.u64(static_cast<std::uint64_t>(r.quality.summary.depth));
    h.u64(static_cast<std::uint64_t>(r.quality.summary.gate_count));
    h.f64(r.quality.summary.execution_ns);
    h.f64(r.quality.summary.esp);
    h.str(r.quality.lint.summary());
}

const Method kAllMethods[] = {Method::Naive, Method::GreedyV,
                              Method::Qaim,  Method::Ip,
                              Method::Ic,    Method::Vic};

TEST(PipelinePin, CompileOutputsPerMethod)
{
    const std::vector<Problem> problems = pinProblems();
    std::vector<std::unique_ptr<PinDevice>> devices;
    for (bool faulty : {false, true}) {
        devices.push_back(
            std::make_unique<PinDevice>(hw::ibmqTokyo20(), 11, faulty));
        devices.push_back(
            std::make_unique<PinDevice>(hw::gridDevice(4, 4), 12, faulty));
        devices.push_back(std::make_unique<PinDevice>(
            hw::ibmqMelbourne15(), 13, faulty));
    }
    const std::vector<std::vector<double>> gammas = {{0.7}, {0.8, 0.31}};
    const std::vector<std::vector<double>> betas = {{0.35}, {0.4, 0.17}};

    const std::string expected[] = {
        "125df57b2d132bcb", // NAIVE
        "9e1e9a53c1d225fc", // GreedyV
        "5c14a50af715d324", // QAIM
        "73ab9757ab683b53", // IP
        "69890a7801690b88", // IC
        "b30af919b18dca6b", // VIC
    };
    int cases = 0;
    for (std::size_t m = 0; m < std::size(kAllMethods); ++m) {
        Fnv1a h;
        for (const Problem &problem : problems)
            for (const auto &device : devices)
                for (std::size_t p = 0; p < gammas.size(); ++p)
                    for (bool decompose : {false, true})
                        for (bool peephole : {false, true}) {
                            QaoaCompileOptions opts;
                            opts.method = kAllMethods[m];
                            opts.gammas = gammas[p];
                            opts.betas = betas[p];
                            opts.decompose_to_basis = decompose;
                            opts.peephole = peephole;
                            device->configure(opts);
                            hashResult(h, problem.graph
                                              ? compileQaoaMaxcut(
                                                    *problem.graph,
                                                    device->map(), opts)
                                              : compileQaoaIsing(
                                                    *problem.model,
                                                    device->map(), opts));
                            ++cases;
                        }
        EXPECT_EQ(h.hex(), expected[m]) << methodName(kAllMethods[m]);
    }
    EXPECT_EQ(cases, 1728);
}

TEST(PipelinePin, MaxcutBuilderQasm)
{
    const std::vector<Problem> problems = pinProblems();
    Fnv1a h;
    for (std::size_t i = 0; i < 3; ++i) {
        const graph::Graph &g = *problems[i].graph;
        h.str(circuit::toQasm(buildQaoaCircuit(g, {0.7}, {0.35})));
        h.str(circuit::toQasm(
            buildQaoaCircuit(g, {0.8, 0.31}, {0.4, 0.17}, false)));
        std::vector<ZZOp> reversed = costOperations(g);
        std::reverse(reversed.begin(), reversed.end());
        h.str(circuit::toQasm(buildQaoaCircuit(g.numNodes(), reversed,
                                               {0.8, 0.31}, {0.4, 0.17})));
    }
    EXPECT_EQ(h.hex(), "059d95c54594d646");
}

} // namespace
} // namespace qaoa::core
