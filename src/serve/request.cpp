#include "serve/request.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/text.hpp"
#include "graph/io.hpp"

namespace qaoa::serve {

namespace {

constexpr const char *kCanonicalVersion = "qaoa-serve-req-v2";

/**
 * Lossless graph rendering for the canonical form.  writeEdgeList()
 * prints weights at default ostream precision (6 significant digits),
 * which would collapse weights differing only beyond that into the
 * same fingerprint — and the canonical-match collision guard would
 * pass, serving the wrong cached circuit.  Hexfloat weights keep the
 * fingerprint faithful to every bit the compiled rz angles depend on.
 */
std::string
canonicalGraph(const graph::Graph &g)
{
    std::string out = std::to_string(g.numNodes());
    for (const graph::Edge &e : g.edges()) {
        out += ';';
        out += std::to_string(e.u) + "-" + std::to_string(e.v) + "@" +
               text::formatHexDouble(e.weight);
    }
    return out;
}

} // namespace

std::string
canonicalText(const CompileRequest &r)
{
    // One field per line, fixed order, versioned.  Everything the
    // compiled artifact depends on appears here; serving metadata
    // (id, tenant, timeout) deliberately does not.
    std::ostringstream os;
    os << kCanonicalVersion << "\n"
       << "graph=" << canonicalGraph(r.problem) << "\n"
       << "device=" << r.device << "\n"
       << "method=" << r.method << "\n"
       << "gammas=" << text::joinHexDoubles(r.gammas) << "\n"
       << "betas=" << text::joinHexDoubles(r.betas) << "\n"
       << "packing=" << r.packing_limit << "\n"
       << "seed=" << r.seed << "\n"
       << "fault.dead=" << text::joinInts(r.faults.dead_qubits) << "\n"
       << "fault.edges=" << text::joinPairs(r.faults.disabled_edges) << "\n"
       << "fault.qubit_rate="
       << text::formatHexDouble(r.faults.qubit_fault_rate) << "\n"
       << "fault.edge_rate="
       << text::formatHexDouble(r.faults.edge_fault_rate) << "\n"
       << "fault.drift="
       << text::formatHexDouble(r.faults.drift_multiplier) << "\n"
       << "fault.seed=" << r.faults.seed << "\n"
       << "router.lookahead_weight="
       << text::formatHexDouble(r.lookahead_weight) << "\n"
       << "router.lookahead_depth=" << r.lookahead_depth << "\n"
       << "router.seed=" << r.router_seed << "\n"
       << "decompose=" << (r.decompose ? 1 : 0) << "\n"
       << "peephole=" << (r.peephole ? 1 : 0) << "\n"
       << "fallbacks=" << (r.allow_fallbacks ? 1 : 0) << "\n"
       << "verify=" << (r.verify ? 1 : 0) << "\n"
       << "analyze=" << (r.analyze_quality ? 1 : 0) << "\n"
       << "stage_budget=" << text::formatHexDouble(r.stage_budget_ms)
       << "\n";
    return os.str();
}

std::string
requestFingerprint(const CompileRequest &request)
{
    Fnv1a h;
    h.str(canonicalText(request));
    return h.hex();
}

void
requestToRecord(const CompileRequest &r, kv::Record &out)
{
    out.set("id", r.id);
    if (!r.tenant.empty())
        out.set("tenant", r.tenant);
    if (r.timeout_ms >= 0.0)
        out.set("timeout_ms", text::formatHexDouble(r.timeout_ms));
    out.set("graph", graph::writeEdgeList(r.problem));
    out.set("device", r.device);
    out.set("method", r.method);
    out.set("gammas", text::joinHexDoubles(r.gammas));
    out.set("betas", text::joinHexDoubles(r.betas));
    out.set("packing", std::to_string(r.packing_limit));
    out.set("seed", std::to_string(r.seed));
    if (!r.faults.dead_qubits.empty())
        out.set("dead_qubits", text::joinInts(r.faults.dead_qubits));
    if (!r.faults.disabled_edges.empty())
        out.set("disabled_edges", text::joinPairs(r.faults.disabled_edges));
    if (r.faults.qubit_fault_rate != 0.0)
        out.set("fault_qubit_rate",
                text::formatHexDouble(r.faults.qubit_fault_rate));
    if (r.faults.edge_fault_rate != 0.0)
        out.set("fault_edge_rate",
                text::formatHexDouble(r.faults.edge_fault_rate));
    if (r.faults.drift_multiplier != 1.0)
        out.set("fault_drift",
                text::formatHexDouble(r.faults.drift_multiplier));
    out.set("fault_seed", std::to_string(r.faults.seed));
    out.set("lookahead_weight", text::formatHexDouble(r.lookahead_weight));
    out.set("lookahead_depth", std::to_string(r.lookahead_depth));
    out.set("router_seed", std::to_string(r.router_seed));
    out.set("decompose", r.decompose ? "1" : "0");
    out.set("peephole", r.peephole ? "1" : "0");
    out.set("fallbacks", r.allow_fallbacks ? "1" : "0");
    out.set("verify", r.verify ? "1" : "0");
    out.set("analyze", r.analyze_quality ? "1" : "0");
    if (r.stage_budget_ms >= 0.0)
        out.set("stage_budget_ms",
                text::formatHexDouble(r.stage_budget_ms));
}

CompileRequest
requestFromRecord(const kv::Record &record, int max_nodes)
{
    // Each present field must parse as a whole token; a failure throws
    // an InvalidArgument Error naming the field.
    const auto read = [&](const char *key, auto parse, auto &out) {
        if (record.has(key))
            out = text::orThrow(parse(record.get(key)), "request", key);
    };
    const auto hexDouble = text::parseHexDouble;
    const auto uint64 = text::parseUint64;
    const auto integer = [](const std::string &v) {
        return text::parseInt(v);
    };
    const auto flag = [](const std::string &v) -> StatusOr<bool> {
        if (v != "0" && v != "1")
            return Status(ErrorCode::InvalidArgument,
                          "must be 0 or 1, got: " + v);
        return v == "1";
    };

    CompileRequest r;
    r.id = record.get("id", "");
    r.tenant = record.get("tenant", "");
    read("timeout_ms", hexDouble, r.timeout_ms);
    r.problem = graph::parseEdgeList(record.get("graph"));
    QAOA_CHECK(r.problem.numNodes() >= 1 &&
                   r.problem.numNodes() <= max_nodes,
               "request: graph has " << r.problem.numNodes()
                                     << " nodes, limit is " << max_nodes);
    r.device = record.get("device", r.device);
    r.method = record.get("method", r.method);
    // Validate names at admission time, not deep inside a worker.
    // qe-allow(QE104): lookup-as-validation — only the throw matters.
    (void)hw::deviceByName(r.device);
    // qe-allow(QE104): lookup-as-validation — only the throw matters.
    (void)core::methodFromName(r.method);
    read("gammas", text::parseHexDoubleList, r.gammas);
    read("betas", text::parseHexDoubleList, r.betas);
    QAOA_CHECK(!r.gammas.empty() && r.gammas.size() == r.betas.size(),
               "request: gammas/betas must be non-empty and equal-length");
    read("packing", integer, r.packing_limit);
    read("seed", uint64, r.seed);
    read("dead_qubits",
         [](const std::string &v) { return text::parseIntList(v); },
         r.faults.dead_qubits);
    read("disabled_edges", text::parsePairList, r.faults.disabled_edges);
    read("fault_qubit_rate", hexDouble, r.faults.qubit_fault_rate);
    read("fault_edge_rate", hexDouble, r.faults.edge_fault_rate);
    read("fault_drift", hexDouble, r.faults.drift_multiplier);
    read("fault_seed", uint64, r.faults.seed);
    read("lookahead_weight", hexDouble, r.lookahead_weight);
    read("lookahead_depth", integer, r.lookahead_depth);
    read("router_seed", uint64, r.router_seed);
    read("decompose", flag, r.decompose);
    read("peephole", flag, r.peephole);
    read("fallbacks", flag, r.allow_fallbacks);
    read("verify", flag, r.verify);
    read("analyze", flag, r.analyze_quality);
    read("stage_budget_ms", hexDouble, r.stage_budget_ms);
    return r;
}

StatusOr<CompileRequest>
tryRequestFromRecord(const kv::Record &record, int max_nodes)
{
    try {
        return requestFromRecord(record, max_nodes);
    } catch (const Error &e) {
        return e.status();
    } catch (const std::exception &e) {
        return Status(ErrorCode::InvalidArgument, e.what());
    }
}

RequestEnvironment::RequestEnvironment(const CompileRequest &request)
    : DeviceView(request.device, request.faults)
{
}

std::unique_ptr<RequestEnvironment>
makeEnvironment(const CompileRequest &request)
{
    return std::make_unique<RequestEnvironment>(request);
}

core::QaoaCompileOptions
makeOptions(const CompileRequest &r, const RequestEnvironment &env)
{
    core::QaoaCompileOptions opts;
    opts.method = core::methodFromName(r.method);
    opts.gammas = r.gammas;
    opts.betas = r.betas;
    opts.packing_limit = r.packing_limit;
    opts.seed = r.seed;
    opts.calibration = &env.calibration();
    opts.router.lookahead_weight = r.lookahead_weight;
    opts.router.lookahead_depth = r.lookahead_depth;
    opts.router.seed = r.router_seed;
    opts.decompose_to_basis = r.decompose;
    opts.peephole = r.peephole;
    opts.allow_fallbacks = r.allow_fallbacks;
    opts.verify = r.verify;
    opts.analyze_quality = r.analyze_quality;
    opts.stage_budget_ms = r.stage_budget_ms;
    opts.allowed_qubits = env.allowedQubits();
    opts.device_degraded = env.degraded();
    return opts;
}

} // namespace qaoa::serve
