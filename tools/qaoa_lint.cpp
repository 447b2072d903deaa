/**
 * @file
 * qaoa_lint — static circuit-quality analyzer front end (run with
 * --help for the flags).
 *
 * Compiles the problem (or the built-in Fig. 11 workload pool) with the
 * selected method(s) and runs the analysis/ passes over each physical
 * circuit: depth/gate metrics, timing makespan, decoherence-exposure
 * factor, ESP with attribution, and the QL101-QL115 lint rules.  With
 * --budget the scalar metrics are additionally checked against the bars
 * of a JSON budget file (QL115 errors on misses); --check-ordering
 * verifies the paper's Fig. 11 ESP ranking VIC >= IC >= IP >= NAIVE on
 * the workload geomeans.
 *
 * Exit codes: 0 clean, 1 findings at/above --fail-on (or a violated
 * budget/ordering), 2 usage error, 3 compile failure.
 */

#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/quality.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/kv.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "graph/io.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "tool_support.hpp"

namespace {

using namespace qaoa;

diag::Severity
severityFromName(const std::string &name)
{
    if (name == "info")
        return diag::Severity::Info;
    return name == "warning" ? diag::Severity::Warning
                             : diag::Severity::Error;
}

/** Parses "0-1x2-3,5-6x7-8" into crosstalk coupling pairs. */
StatusOr<std::vector<analysis::CrosstalkPair>>
parseCrosstalkPairs(const std::string &value)
{
    std::vector<analysis::CrosstalkPair> pairs;
    for (const std::string &item : text::split(value, ',')) {
        const std::vector<std::string> halves = text::split(item, 'x');
        const StatusOr<std::pair<int, int>> a =
            text::parsePair(halves.empty() ? "" : halves[0]);
        const StatusOr<std::pair<int, int>> b =
            text::parsePair(halves.size() == 2 ? halves[1] : "");
        if (!a.ok() || !b.ok())
            return Status(ErrorCode::InvalidArgument,
                          "\"" + item + "\" is not a pair a-bxc-d");
        pairs.push_back({a.value(), b.value()});
    }
    return pairs;
}

/** Aggregated lint outcome of one method over the instance pool. */
struct MethodRow
{
    std::string method;
    int instances = 0;
    double depth = 0.0;    ///< Mean physical depth.
    double gates = 0.0;    ///< Mean gate count.
    double two_q = 0.0;    ///< Mean 2q gate count.
    double swaps = 0.0;    ///< Mean SWAP count.
    double exec_ns = 0.0;  ///< Mean makespan.
    double esp = 0.0;      ///< Geomean ESP.
    double coherence = 0.0; ///< Geomean decoherence-exposure factor.
    diag::Report findings; ///< Merged across instances.
};

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

int
runLint(int argc, char **argv)
{
    std::string graph_path, workload, method = "all", device = "tokyo",
                calib_kind = "default", format = "text", budget_path;
    double gamma = 0.7, beta = 0.35;
    int levels = 1, packing = 1 << 30, instances = 3;
    std::uint64_t seed = 7, calib_seed = 2020;
    std::string fail_on = "warning";
    bool check_ordering = false;
    std::vector<analysis::CrosstalkPair> crosstalk_pairs;
    hw::FaultSpec faults;

    cli::FlagTable flags(
        "usage: qaoa_lint (--graph FILE | --workload fig11) [options]");
    flags.text("--graph", "FILE", "MaxCut problem graph (edge list)",
               graph_path)
        .choice("--workload", "lint the scaled Fig. 11 pool", workload,
                {"fig11"})
        .text("--method", "M",
              "naive|greedyv|qaim|ip|ic|vic|all (default all)", method)
        .text("--device", "D",
              "tokyo|melbourne|poughkeepsie|heavyhex|grid6x6|linearN|ringN "
              "(default tokyo)",
              device)
        .choice("--calib", "calibration (default default)", calib_kind,
                {"default", "melbourne", "random"})
        .uint64("--calib-seed", "S",
                "seed of the random calibration (default 2020)", calib_seed)
        .integer("--instances", "N",
                 "instances per workload class (default 3)", instances, 1)
        .real("--gamma", "G", "cost angle per level (default 0.7)", gamma)
        .real("--beta", "B", "mixer angle per level (default 0.35)", beta)
        .integer("--levels", "P", "QAOA levels (default 1)", levels, 1)
        .integer("--packing", "N",
                 "max CPHASEs per layer (default unlimited)", packing)
        .uint64("--seed", "S", "master seed (default 7)", seed)
        .choice("--format", "output format (default text)", format,
                {"text", "csv", "json"})
        .text("--budget", "FILE",
              "JSON bars (tests/budgets/*.json); misses are QL115 errors",
              budget_path)
        .choice("--fail-on", "failing severity (default warning)", fail_on,
                {"info", "warning", "error"})
        .setFlag("--check-ordering",
                 "enforce ESP geomean VIC >= IC >= IP >= NAIVE",
                 check_ordering)
        .add("--crosstalk-pairs", "LIST", "e.g. 0-1x2-3,5-6x7-8 (QL111)",
             tools::listSetter(crosstalk_pairs, parseCrosstalkPairs));
    tools::addFaultFlags(flags, faults);
    if (const std::optional<int> exit = flags.parse(argc, argv))
        return *exit;
    if (graph_path.empty() == workload.empty())
        return cli::usageError("need exactly one of --graph / --workload");

    try {
        // Device + calibration (possibly degraded by fault injection).
        const hw::DeviceView dev(
            device, faults, [&](const hw::CouplingMap &base) {
                if (calib_kind == "melbourne")
                    return hw::melbourneCalibration(base);
                if (calib_kind == "random") {
                    Rng calib_rng(calib_seed);
                    return hw::randomCalibration(base, calib_rng);
                }
                return hw::CalibrationData(base);
            });
        const hw::CouplingMap &map = dev.map();
        const hw::CalibrationData &calib = dev.calibration();

        // Problem pool (the workload scales to the usable device size).
        std::vector<graph::Graph> pool;
        if (!graph_path.empty()) {
            pool.push_back(graph::loadGraphFile(graph_path));
        } else {
            const StatusOr<int> n = tools::fig11Nodes(dev);
            if (!n.ok())
                return cli::usageError(n.status().message());
            pool = metrics::fig11Pool(n.value(), instances, calib_seed);
        }

        std::optional<analysis::QualityBudget> budget;
        if (!budget_path.empty())
            budget = analysis::loadBudgetFile(budget_path);

        std::vector<core::Method> methods;
        if (method == "all")
            methods = {core::Method::Naive, core::Method::GreedyV,
                       core::Method::Qaim,  core::Method::Ip,
                       core::Method::Ic,    core::Method::Vic};
        else
            methods = {core::methodFromName(method)};

        std::vector<MethodRow> rows;
        std::map<std::string, double> esp_by_method;
        for (core::Method m : methods) {
            MethodRow row;
            row.method = core::methodName(m);
            std::vector<double> esps, cohs;
            for (std::size_t pi = 0; pi < pool.size(); ++pi) {
                core::QaoaCompileOptions opts;
                opts.method = m;
                opts.gammas.assign(static_cast<std::size_t>(levels),
                                   gamma);
                opts.betas.assign(static_cast<std::size_t>(levels), beta);
                opts.packing_limit = packing;
                opts.seed = seed + 1000 * pi;
                opts.calibration = &calib;
                opts.decompose_to_basis = false; // lint the physical IR
                opts.crosstalk_pairs = crosstalk_pairs;
                opts.allowed_qubits = dev.allowedQubits();
                opts.device_degraded = dev.degraded();
                transpiler::CompileResult r =
                    core::compileQaoaMaxcut(pool[pi], map, opts);
                if (!r.ok()) {
                    std::cerr << "error: " << row.method
                              << " failed on instance " << pi << ": "
                              << r.failure_reason << "\n";
                    return 3;
                }
                if (budget)
                    r.quality.lint.merge(analysis::checkBudget(
                        r.quality.summary, *budget));
                const analysis::QualitySummary &s = r.quality.summary;
                row.instances += 1;
                row.depth += s.depth;
                row.gates += s.gate_count;
                row.two_q += s.two_qubit_gates;
                row.swaps += s.swap_count;
                row.exec_ns += s.execution_ns;
                esps.push_back(s.esp);
                cohs.push_back(s.coherence);
                row.findings.merge(std::move(r.quality.lint));
            }
            const double n = static_cast<double>(row.instances);
            row.depth /= n;
            row.gates /= n;
            row.two_q /= n;
            row.swaps /= n;
            row.exec_ns /= n;
            row.esp = geomean(esps);
            row.coherence = geomean(cohs);
            esp_by_method[row.method] = row.esp;
            rows.push_back(std::move(row));
        }

        // Render.
        bool dirty = false;
        if (format == "json") {
            std::cout << "[\n";
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const MethodRow &r = rows[i];
                std::cout
                    << "  {\"method\": \"" << kv::escape(r.method)
                    << "\", \"device\": \"" << kv::escape(map.name())
                    << "\", \"instances\": " << r.instances
                    << ", \"depth\": " << Table::num(r.depth, 2)
                    << ", \"gates\": " << Table::num(r.gates, 2)
                    << ", \"two_qubit\": " << Table::num(r.two_q, 2)
                    << ", \"swaps\": " << Table::num(r.swaps, 2)
                    << ", \"execution_ns\": "
                    << Table::num(r.exec_ns, 1)
                    << ", \"esp\": " << Table::num(r.esp, 6)
                    << ", \"coherence\": "
                    << Table::num(r.coherence, 6)
                    << ", \"errors\": "
                    << r.findings.countSeverity(diag::Severity::Error)
                    << ", \"warnings\": "
                    << r.findings.countSeverity(
                           diag::Severity::Warning)
                    << ", \"infos\": "
                    << r.findings.countSeverity(diag::Severity::Info)
                    << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
            }
            std::cout << "]\n";
        } else {
            Table t({"method", "instances", "depth", "gates", "2q",
                     "swaps", "exec_ns", "esp", "coherence", "errors",
                     "warnings", "infos"});
            for (const MethodRow &r : rows)
                t.addRow({r.method, std::to_string(r.instances),
                          Table::num(r.depth, 2), Table::num(r.gates, 2),
                          Table::num(r.two_q, 2), Table::num(r.swaps, 2),
                          Table::num(r.exec_ns, 1), Table::num(r.esp, 6),
                          Table::num(r.coherence, 6),
                          std::to_string(r.findings.countSeverity(
                              diag::Severity::Error)),
                          std::to_string(r.findings.countSeverity(
                              diag::Severity::Warning)),
                          std::to_string(r.findings.countSeverity(
                              diag::Severity::Info))});
            if (format == "csv")
                t.printCsv(std::cout);
            else
                t.print(std::cout);
        }
        for (const MethodRow &r : rows) {
            const bool clean = r.findings.clean(severityFromName(fail_on));
            dirty = dirty || !clean;
            if (format == "text" && !clean) {
                std::cout << "\n" << r.method << " findings:\n";
                r.findings.print(std::cout, "lint");
            } else if (format == "text") {
                std::cout << r.method << " lint: "
                          << r.findings.summary() << "\n";
            }
        }

        if (check_ordering) {
            const char *want[] = {"NAIVE", "IP", "IC", "VIC"};
            bool have_all = true;
            for (const char *m : want)
                if (esp_by_method.find(m) == esp_by_method.end())
                    have_all = false;
            if (!have_all) {
                std::cerr << "error: --check-ordering needs methods "
                             "naive, ip, ic and vic\n";
                return 2;
            }
            const double tol = 1.0e-12;
            bool ordered =
                esp_by_method["VIC"] + tol >= esp_by_method["IC"] &&
                esp_by_method["IC"] + tol >= esp_by_method["IP"] &&
                esp_by_method["IP"] + tol >= esp_by_method["NAIVE"];
            std::cout << "esp ordering: VIC "
                      << Table::num(esp_by_method["VIC"], 6) << " >= IC "
                      << Table::num(esp_by_method["IC"], 6) << " >= IP "
                      << Table::num(esp_by_method["IP"], 6) << " >= NAIVE "
                      << Table::num(esp_by_method["NAIVE"], 6)
                      << (ordered ? " : ok" : " : VIOLATED") << "\n";
            if (!ordered)
                dirty = true;
        }

        return dirty ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // QE105: the process crash domain — anything the typed handler
    // above misses exits kExitFatal with a classified report.
    return qaoa::toolMain("qaoa_lint", [&] { return runLint(argc, argv); });
}
