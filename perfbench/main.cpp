/**
 * @file
 * qaoa_bench — the repository benchmark harness.
 *
 *   qaoa_bench --workload compile-fig11|p1-optimize|serve-storm
 *              --seed N --seconds S --trace 0|1
 *              --daemon PATH --scratch DIR [--source-id TEXT]
 *
 * Prints a run-record line, (traced) a span-tree line, and as its last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Exit code 0 when the run completed (correct or not), 2 on bad usage.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "phases.hpp"

namespace {

using namespace qaoa::bench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string daemon;
    std::string scratch;
    std::string source_id = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--daemon")
            args.daemon = value;
        else if (flag == "--scratch")
            args.scratch = value;
        else if (flag == "--source-id")
            args.source_id = value;
        else
            return false;
    }
    return argc % 2 == 1 &&
           (args.workload == "compile-fig11" ||
            args.workload == "p1-optimize" ||
            args.workload == "serve-storm") &&
           args.seconds > 0.0 && !args.daemon.empty() &&
           !args.scratch.empty();
}

/**
 * Set-up/measure rounds per run (see phases.hpp).  The machine's speed
 * drifts by ~20% over seconds, so many short rounds spread every phase,
 * the short control slices above all, over the whole run.
 */
constexpr int kRounds = 9;

/**
 * Seconds per run of each control slice; the workload's own phase gets
 * the rest.  The compile and p1 slices time on the CPU clock (compile:
 * each item's fastest of 15-25 compiles) and need little time; the
 * serve slice is wall-clock, and sends its warm-up and one low/high
 * segment pair in each round.
 */
constexpr double kCompileControlSeconds = 4.0;
constexpr double kP1ControlSeconds = 6.0;
constexpr double kServeControlSeconds = 14.0;

/** Reference passes right before and right after each phase's
 *  measurement in every round (see hostSlowdown()). */
constexpr int kReferencePasses = 3;

/**
 * The host's slowdown while a phase measured: the median of its
 * reference passes over kReferenceNominalMs.  A time reported at
 * nominal speed is the measured time divided by it.
 */
double
hostSlowdown(const std::vector<double> &reference_ms)
{
    return reference_ms.empty() ? 1.0
                                : median(reference_ms) / kReferenceNominalMs;
}

/** Brings every scaled metric of @p r to nominal host speed, keeping the
 *  measured value in the run record. */
void
scaleToNominal(PhaseResult &r, double slowdown)
{
    for (auto &[name, m] : r.metrics) {
        if (m.scale == Scale::None)
            continue;
        r.record["measured." + name] = jsonNumber(m.value);
        m.value = m.scale == Scale::Time ? m.value / slowdown
                                         : m.value * slowdown;
    }
}

int
runBench(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: qaoa_bench --workload compile-fig11|"
                     "p1-optimize|serve-storm --seed N --seconds S "
                     "--trace 0|1 --daemon PATH --scratch DIR\n");
        return 2;
    }
    std::filesystem::create_directories(args.scratch);
    const int nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const int threads = std::min(nproc, 4);

    const std::pair<std::string, double> controls[] = {
        {"compile-fig11", kCompileControlSeconds},
        {"p1-optimize", kP1ControlSeconds},
        {"serve-storm", kServeControlSeconds}};
    double control_total = 0.0;
    for (const auto &[phase, seconds] : controls)
        if (phase != args.workload)
            control_total += seconds;
    auto plan = [&](const std::string &phase, std::uint64_t salt) {
        PhasePlan p;
        p.role = phase == args.workload ? Role::Primary : Role::Control;
        double control = 0.0;
        for (const auto &[name, seconds] : controls)
            if (name == phase)
                control = seconds;
        p.seconds = p.role == Role::Control
                        ? control
                        : std::max(control, args.seconds - control_total);
        p.rounds = kRounds;
        p.seed = args.seed * 1000003ULL + salt;
        p.threads = threads;
        p.scratch = args.scratch;
        return p;
    };

    Tracer tracer;
    Tracer *t = args.trace ? &tracer : nullptr;
    const char *const names[] = {"compile-fig11", "p1-optimize",
                                 "serve-storm"};
    const PhasePlan plans[] = {plan(names[0], 1), plan(names[1], 2),
                               plan(names[2], 3)};
    std::unique_ptr<Phase> phases[] = {
        makeCompilePhase(plans[0], t), makeP1Phase(plans[1], t),
        makeServePhase(plans[2], t, args.daemon)};

    // Each round sets every phase up again and measures it; set-up time
    // is the median over rounds of the round's total.  The host-speed
    // reference runs right before and after each measurement, so it sees
    // the stretch of the shared machine that the phase saw.
    std::vector<double> setups;
    std::vector<double> reference_ms[3], all_reference_ms;
    auto sampleReference = [&](int phase) {
        for (int k = 0; k < kReferencePasses; ++k) {
            reference_ms[phase].push_back(referenceKernelMs());
            all_reference_ms.push_back(reference_ms[phase].back());
        }
    };
    const CpuTicks ticks0 = readCpuTicks();
    for (int round = 0; round < kRounds; ++round) {
        double setup = 0.0;
        for (int i = 0; i < 3; ++i) {
            const double t0 = nowSeconds();
            phases[i]->setUp(round);
            setup += nowSeconds() - t0;
            sampleReference(i);
            phases[i]->measure(plans[i].seconds / kRounds);
            sampleReference(i);
        }
        setups.push_back(setup);
    }
    // Share of the machine's CPU time the hypervisor gave to other
    // tenants while this run measured (0 when /proc/stat is absent).
    const CpuTicks ticks1 = readCpuTicks();
    const double steal_share =
        ticks1.total > ticks0.total
            ? static_cast<double>(ticks1.steal - ticks0.steal) /
                  static_cast<double>(ticks1.total - ticks0.total)
            : 0.0;

    PhaseResult all;
    double serve_rss_mb = 0.0;
    for (int i = 0; i < 3; ++i) {
        PhaseResult r;
        phases[i]->finish(r);
        scaleToNominal(r, hostSlowdown(reference_ms[i]));
        r.record["reference_ms." + std::string(names[i])] =
            jsonNumber(median(reference_ms[i]));
        all.metrics.insert(r.metrics.begin(), r.metrics.end());
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.failures.insert(all.failures.end(), r.failures.begin(),
                            r.failures.end());
        all.record.insert(r.record.begin(), r.record.end());
        serve_rss_mb = std::max(serve_rss_mb, r.peak_rss_mb);
    }
    const double fail_ratio =
        static_cast<double>(all.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, all.attempted));
    if (args.trace) {
        all.set("fail_ratio", fail_ratio, "ratio");
    } else {
        PhaseResult setup;
        setup.set("setup_s", median(setups), "s", Scale::Time);
        scaleToNominal(setup, hostSlowdown(all_reference_ms));
        all.metrics.insert(setup.metrics.begin(), setup.metrics.end());
        all.record.insert(setup.record.begin(), setup.record.end());
        all.set("peak_rss_mb",
                args.workload == "serve-storm" ? serve_rss_mb
                                               : selfPeakRssMb(),
                "MiB");
    }

    for (const std::string &note : all.failures)
        std::fprintf(stderr, "qaoa_bench: FAIL %s\n", note.c_str());

    // Run record.
    std::string record = "{\"run_record\": {";
    auto field = [&](const std::string &k, const std::string &v,
                     bool last = false) {
        record += jsonString(k) + ": " + jsonString(v) + (last ? "" : ", ");
    };
    field("workload", args.workload);
    field("seed", std::to_string(args.seed));
    field("seconds", std::to_string(args.seconds));
    field("trace", args.trace ? "1" : "0");
    field("nproc", std::to_string(nproc));
    field("cpu_model", cpuModel());
    field("compiler", QAOA_BENCH_COMPILER);
    field("build_type", QAOA_BENCH_BUILD_TYPE);
    field("source_id", args.source_id);
    field("threads_compile_loop", "1");
    field("threads_compile_series", std::to_string(threads));
    field("threads_p1", "1");
    field("host_steal_share", jsonNumber(steal_share));
    field("serve_daemon_workers", "2");
    field("fail_ratio", jsonNumber(fail_ratio));
    for (const auto &[k, v] : all.record)
        field(k, v);
    record.resize(record.size() - 2);
    record += "}}";
    std::printf("%s\n", record.c_str());

    if (args.trace) {
        const std::string spans = args.scratch + "/spans-" + args.workload +
                                  "-" + std::to_string(args.seed) + ".jsonl";
        if (!tracer.write(spans))
            std::fprintf(stderr, "qaoa_bench: cannot write %s\n",
                         spans.c_str());
        std::printf("{\"span_tree\": %s, \"spans_file\": %s}\n",
                    tracer.treeJson().c_str(), jsonString(spans).c_str());
    }

    std::string line = "{\"correct\": ";
    line += all.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(all.attempted);
    line += ", \"failed\": " + std::to_string(all.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : all.metrics) {
        line += (first ? "" : ", ") + jsonString(name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return qaoa::toolMain("qaoa_bench", [&] { return runBench(argc, argv); });
}
