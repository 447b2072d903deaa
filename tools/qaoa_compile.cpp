/**
 * @file
 * qaoa_compile — command-line front end for the compilation pipeline
 * (run with --help for the flags).
 *
 * Reads a MaxCut problem graph in the edge-list format (see
 * graph/io.hpp), compiles it with the chosen methodology and prints the
 * §V-A quality metrics; optionally writes the compiled circuit as
 * OpenQASM text (--qasm) and/or a bit-exact qbin artifact (--qbin,
 * inspectable with qaoa_qbin).
 *
 * The fault flags degrade the device before compiling (see
 * hardware/faults.hpp); the compile then reports a structured status
 * (ok / degraded / failed) with the fallbacks taken.
 *
 * --verify runs the verify/ translation validator on the compiled
 * circuit (coupling conformance against the possibly-degraded device,
 * SWAP-replay of the reported mapping, ZZ-interaction equivalence with
 * the problem graph) and prints the findings table; --verify-strict also
 * fails on warnings.  --verify-csv renders the findings as CSV.
 *
 * Resilience (common/guard.hpp): --timeout-ms puts the whole run under
 * a monotonic deadline and --stage-budget caps each retry-ladder rung;
 * an expired compile reports a structured timed-out status with its
 * per-stage trace and exits 4 — no partial circuit is ever emitted.
 * --workload fig11 compiles the scaled Fig. 11 instance pool under one
 * shared deadline instead of a single graph.  --optimize-p1 runs the
 * checkpointable p=1 (γ, β) search (metrics/harness.hpp); with
 * --checkpoint the optimizer state is saved after every committed step
 * and --resume continues a killed run bit-identically.
 *
 * Exit codes: 0 success (ok or degraded), 1 compile failure,
 * 2 usage error, 3 verification failure, 4 timeout.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "circuit/qbin.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/guard.hpp"
#include "common/text.hpp"
#include "graph/io.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "opt/checkpoint.hpp"
#include "qaoa/api.hpp"
#include "qaoa/presets.hpp"
#include "qaoa/problem.hpp"
#include "sim/success.hpp"
#include "tool_support.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace qaoa;

/** Prints the retry-ladder flight record of one compile. */
void
printStages(const transpiler::CompileResult &r)
{
    for (const run::StageTrace &t : r.stages) {
        std::cout << "stage:        " << t.stage << " ["
                  << run::stageOutcomeName(t.outcome) << ", "
                  << t.elapsed_ms << " ms, retry " << t.retries << "]";
        if (!t.detail.empty())
            std::cout << " — " << t.detail;
        std::cout << "\n";
    }
}

int
runCompile(int argc, char **argv)
{
    std::string graph_path, method = "ic", device = "melbourne",
                qasm_path, qbin_path, preset, workload, checkpoint_path;
    double gamma = 0.7, beta = 0.35;
    double timeout_ms = -1.0, stage_budget_ms = -1.0;
    int levels = 1, packing = 1 << 30, instances = 3;
    std::uint64_t seed = 7;
    bool decompose = true;
    bool peephole = false;
    bool fallbacks = true;
    bool run_verify = false;
    bool verify_strict = false;
    bool verify_csv = false;
    bool optimize_p1 = false;
    bool resume = false;
    hw::FaultSpec faults;

    cli::FlagTable flags("usage: qaoa_compile --graph FILE [options]");
    flags.text("--graph", "FILE", "MaxCut problem graph (edge list)",
               graph_path)
        .text("--method", "M", "naive|greedyv|qaim|ip|ic|vic (default ic)",
              method)
        .choice("--preset", "overrides --method/--peephole", preset,
                {"o0", "o1", "o2", "o3"})
        .text("--device", "D",
              "tokyo|melbourne|poughkeepsie|heavyhex|grid6x6|linearN|ringN "
              "(default melbourne)",
              device)
        .real("--gamma", "G", "cost angle per level (default 0.7)", gamma)
        .real("--beta", "B", "mixer angle per level (default 0.35)", beta)
        .integer("--levels", "P", "QAOA levels (default 1)", levels, 1)
        .integer("--packing", "N",
                 "max CPHASEs per layer (default unlimited)", packing)
        .uint64("--seed", "S", "master seed (default 7)", seed)
        .setFlag("--peephole", "run the peephole optimizer", peephole)
        .text("--qasm", "FILE", "write compiled OpenQASM", qasm_path)
        .text("--qbin", "FILE",
              "write a bit-exact qbin artifact (circuit + metadata)",
              qbin_path)
        .setFlag("--no-decompose", "keep high-level gates", decompose, false);
    tools::addFaultFlags(flags, faults);
    flags.real("--drift", "M", "multiply CNOT error rates by M",
               faults.drift_multiplier)
        .setFlag("--no-fallbacks", "fail instead of retrying/falling back",
                 fallbacks, false)
        .section("verification (verify/):")
        .setFlag("--verify",
                 "print the translation-validation report; exit 3 on errors",
                 run_verify)
        .toggle("--verify-strict", "exit 3 on any finding, warnings included",
                [&] { run_verify = verify_strict = true; })
        .toggle("--verify-csv", "render the findings table as CSV",
                [&] { run_verify = verify_csv = true; })
        .section("resilience (common/guard.hpp):")
        .real("--timeout-ms", "MS",
              "total compile deadline; exit 4 when it expires", timeout_ms)
        .real("--stage-budget", "MS", "watchdog budget per retry-ladder rung",
              stage_budget_ms)
        .choice("--workload",
                "compile the scaled Fig. 11 pool under one deadline",
                workload, {"fig11"})
        .integer("--instances", "N",
                 "instances per workload class (default 3)", instances, 1)
        .setFlag("--optimize-p1",
                 "run the p=1 (gamma, beta) search instead of compiling",
                 optimize_p1)
        .text("--checkpoint", "FILE",
              "save optimizer state after every committed step",
              checkpoint_path)
        .setFlag("--resume", "continue from --checkpoint if it exists",
                 resume);
    if (const std::optional<int> exit = flags.parse(argc, argv))
        return *exit;
    if (graph_path.empty() == workload.empty())
        return cli::usageError("need exactly one of --graph / --workload");
    if (optimize_p1 && graph_path.empty())
        return cli::usageError("--optimize-p1 needs --graph");

    try {
        // One guard for everything this invocation runs: a single
        // monotonic deadline shared by every compile/optimizer step.
        const run::CancelToken token;
        const run::Deadline deadline =
            timeout_ms >= 0.0 ? run::Deadline::afterMs(timeout_ms)
                              : run::Deadline::never();
        const run::RunGuard guard(token, deadline);

        if (optimize_p1) {
            graph::Graph problem = graph::loadGraphFile(graph_path);
            metrics::OptimizeP1Options popts;
            popts.guard = &guard;
            popts.checkpoint_path = checkpoint_path;
            popts.resume = resume;
            try {
                metrics::P1Run run =
                    metrics::optimizeP1Checkpointed(problem, popts);
                char line[256];
                std::snprintf(line, sizeof line,
                              "p1 optimum:   gamma=%.17g beta=%.17g "
                              "cut=%.17g evals=%d%s\n",
                              run.params.gamma, run.params.beta,
                              run.params.expected_cut, run.evaluations,
                              run.resumed ? " (resumed)" : "");
                std::cout << line;
                return 0;
            } catch (const run::TimedOutError &e) {
                std::cerr << "error: timed out: " << e.what() << "\n";
                return 4;
            }
        }

        // With faults, compile against the degraded view, with
        // placement kept inside the largest surviving component.
        const hw::DeviceView dev(device, faults);
        const hw::CouplingMap &map = dev.map();
        const hw::CalibrationData &calib = dev.calibration();

        core::QaoaCompileOptions opts;
        opts.method = core::methodFromName(method);
        if (!preset.empty()) {
            // --preset admits only "o0".."o3", the enumerator order.
            const auto level =
                static_cast<core::OptimizationLevel>(preset[1] - '0');
            opts.method = core::presetMethod(level, true);
            peephole = level == core::OptimizationLevel::O3;
        }
        opts.gammas.assign(static_cast<std::size_t>(levels), gamma);
        opts.betas.assign(static_cast<std::size_t>(levels), beta);
        opts.packing_limit = packing;
        opts.seed = seed;
        opts.calibration = &calib;
        opts.decompose_to_basis = decompose;
        opts.peephole = peephole;
        opts.allow_fallbacks = fallbacks;
        opts.allowed_qubits = dev.allowedQubits();
        opts.device_degraded = dev.degraded();
        opts.guard = &guard;
        opts.stage_budget_ms = stage_budget_ms;

        if (!workload.empty()) {
            const StatusOr<int> n = tools::fig11Nodes(dev);
            if (!n.ok())
                return cli::usageError(n.status().message());
            const std::vector<graph::Graph> pool =
                metrics::fig11Pool(n.value(), instances, seed);
            metrics::MetricSeries series =
                metrics::compileSeries(pool, map, opts);
            int ok = 0, timed_out = 0, other = 0;
            for (transpiler::CompileStatus s : series.status) {
                if (s == transpiler::CompileStatus::Ok ||
                    s == transpiler::CompileStatus::Degraded)
                    ++ok;
                else if (s == transpiler::CompileStatus::TimedOut)
                    ++timed_out;
                else
                    ++other;
            }
            std::cout << "workload:     fig11 (" << pool.size()
                      << " instances, n=" << n.value() << ")\n"
                      << "device:       " << map.name() << "\n"
                      << "method:       "
                      << core::methodName(opts.method) << "\n"
                      << "compiled:     " << ok << "\n"
                      << "timed out:    " << timed_out << "\n"
                      << "failed:       " << other << "\n";
            if (timed_out > 0) {
                std::cerr << "error: workload timed out (" << timed_out
                          << "/" << series.status.size()
                          << " instances hit the deadline)\n";
                return 4;
            }
            return other > 0 ? 1 : 0;
        }

        graph::Graph problem = graph::loadGraphFile(graph_path);
        transpiler::CompileResult r =
            core::compileQaoaMaxcut(problem, map, opts);

        std::cout << "graph:        " << graph_path << " ("
                  << problem.numNodes() << " nodes, "
                  << problem.numEdges() << " edges)\n"
                  << "device:       " << map.name() << "\n"
                  << "method:       " << core::methodName(opts.method)
                  << "\n"
                  << "status:       " << transpiler::statusName(r.status)
                  << "\n";
        for (const std::string &note : dev.faultNotes())
            std::cout << "fault:        " << note << "\n";
        for (const std::string &d : r.diagnostics)
            std::cout << "note:         " << d << "\n";
        printStages(r);

        if (!r.ok()) {
            std::cerr << "error: compile "
                      << transpiler::statusName(r.status) << ": "
                      << r.failure_reason << "\n";
            return r.status == transpiler::CompileStatus::TimedOut ? 4
                                                                   : 1;
        }

        std::cout << "depth:        " << r.report.depth << "\n"
                  << "gate count:   " << r.report.gate_count << "\n"
                  << "CNOTs:        " << r.report.cx_count << "\n"
                  << "SWAPs:        " << r.report.swap_count << "\n"
                  << "compile time: " << r.report.compile_seconds * 1e3
                  << " ms\n"
                  << "success prob: "
                  << sim::successProbability(r.compiled, calib) << "\n";

        if (!qasm_path.empty()) {
            std::ofstream out(qasm_path);
            if (!out.good()) {
                std::cerr << "cannot write " << qasm_path << "\n";
                return 1;
            }
            out << circuit::toQasm(r.compiled);
            std::cout << "wrote " << qasm_path << "\n";
        }

        if (!qbin_path.empty()) {
            circuit::qbin::Artifact artifact;
            artifact.circuit = circuit::qbin::encodeCircuit(r.compiled);
            artifact.meta.set("producer", "qaoa_compile");
            artifact.meta.set("status",
                              transpiler::statusName(r.status));
            artifact.meta.set("method", core::methodName(opts.method));
            artifact.meta.set("device", map.name());
            artifact.meta.set("depth", std::to_string(r.report.depth));
            artifact.meta.set("gate_count",
                              std::to_string(r.report.gate_count));
            artifact.meta.set("cx_count",
                              std::to_string(r.report.cx_count));
            artifact.meta.set("swap_count",
                              std::to_string(r.report.swap_count));
            artifact.meta.set(
                "compile_ms",
                text::formatHexDouble(r.report.compile_seconds * 1e3));
            opt::saveArtifactFile(qbin_path,
                                  circuit::qbin::encodeArtifact(artifact));
            std::cout << "wrote " << qbin_path << "\n";
        }

        if (run_verify) {
            std::vector<verify::ZZTerm> expected;
            for (double g : opts.gammas)
                for (const core::ZZOp &op : core::costOperations(problem))
                    expected.push_back({op.a, op.b, g * op.weight});

            verify::VerifySpec spec;
            spec.map = &map;
            spec.allowed_qubits = opts.allowed_qubits;
            spec.initial_log_to_phys = r.initial_layout.logToPhys();
            spec.expected_final = r.final_layout.logToPhys();
            spec.expected_interactions = &expected;
            spec.lift_basis = false; // r.physical holds high-level gates
            spec.ignore_zero_interactions = peephole;
            const diag::Report report =
                verify::verifyCircuit(r.physical, spec);
            report.print(std::cout, "verification", verify_csv);
            const bool pass =
                verify_strict ? report.spotless() : report.clean();
            if (!pass) {
                std::cerr << "error: verification failed ("
                          << report.summary() << ")\n";
                return 3;
            }
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // QE105: the process crash domain — anything the typed handlers
    // above miss exits kExitFatal with a classified report, never aborts.
    return toolMain("qaoa_compile", [&] { return runCompile(argc, argv); });
}
