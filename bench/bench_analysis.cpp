/**
 * @file
 * Throughput of the static quality analyzer (src/analysis/).
 *
 * The analyzer runs inside every compile (checkQuality) and inside the
 * quality-budget CI job, so its cost must stay a small fraction of the
 * compile itself.  This bench compiles the Fig. 11 regular workload on
 * ibmq_20_tokyo once per method, then times analyzeCircuit() in
 * isolation and reports per-circuit analysis cost next to the compile
 * cost it rides on.
 */

#include <chrono>
#include <iostream>

#include "analysis/quality.hpp"
#include "bench_util.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"

int
main(int argc, char **argv)
{
    using namespace qaoa;
    using Clock = std::chrono::steady_clock;
    bench::BenchConfig config = bench::parseArgs(argc, argv);
    const int count = config.instances(6, 30);
    const int repeats = config.instances(20, 100);

    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng crng(2020);
    hw::CalibrationData calib = hw::randomCalibration(tokyo, crng);
    auto instances = metrics::regularInstances(20, 4, count, 4711);

    const core::Method methods[] = {core::Method::Naive, core::Method::Ip,
                                    core::Method::Ic, core::Method::Vic};

    Table t({"method", "instances", "compile_ms", "analyze_us", "gates",
             "findings"});
    for (core::Method m : methods) {
        double compile_s = 0.0;
        double analyze_s = 0.0;
        double gates = 0.0;
        double findings = 0.0;
        for (const graph::Graph &g : instances) {
            core::QaoaCompileOptions opts;
            opts.method = m;
            opts.calibration = &calib;
            opts.decompose_to_basis = false;
            opts.analyze_quality = false; // time the analyzer separately
            transpiler::CompileResult r =
                core::compileQaoaMaxcut(g, tokyo, opts);
            if (!r.ok())
                continue;
            compile_s += r.report.compile_seconds;

            analysis::QualityOptions qopts;
            qopts.lint.map = &tokyo;
            qopts.lint.calibration = &calib;
            const auto start = Clock::now();
            analysis::QualityReport q;
            for (int rep = 0; rep < repeats; ++rep)
                q = analysis::analyzeCircuit(r.physical, qopts);
            const std::chrono::duration<double> dt = Clock::now() - start;
            analyze_s += dt.count() / repeats;
            gates += q.summary.gate_count;
            findings += static_cast<double>(q.lint.diagnostics().size());
        }
        const double n = static_cast<double>(instances.size());
        t.addRow({core::methodName(m), std::to_string(instances.size()),
                  Table::num(1e3 * compile_s / n, 3),
                  Table::num(1e6 * analyze_s / n, 1),
                  Table::num(gates / n, 1), Table::num(findings / n, 1)});
    }
    if (config.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return 0;
}
