#include "transpiler/compiler.hpp"

#include <vector>

#include "circuit/decompose.hpp"
#include "circuit/layers.hpp"
#include "common/error.hpp"
#include "common/guard.hpp"
#include "common/stopwatch.hpp"
#include "transpiler/peephole.hpp"
#include "verify/verifier.hpp"

// The pipeline self-check below runs in debug builds; the sanitize CI leg
// keeps it alive under RelWithDebInfo (which defines NDEBUG) by defining
// QAOA_VERIFY_PIPELINE explicitly.
#if !defined(NDEBUG) || defined(QAOA_VERIFY_PIPELINE)
#define QAOA_PIPELINE_SELF_CHECK 1
#else
#define QAOA_PIPELINE_SELF_CHECK 0
#endif

namespace qaoa::transpiler {

std::string
statusName(CompileStatus s)
{
    switch (s) {
      case CompileStatus::Ok: return "ok";
      case CompileStatus::Degraded: return "degraded";
      case CompileStatus::Failed: return "failed";
      case CompileStatus::TimedOut: return "timed-out";
      case CompileStatus::Cancelled: return "cancelled";
      case CompileStatus::ResourceExceeded: return "resource-exceeded";
    }
    QAOA_ASSERT(false, "unknown compile status");
    return {};
}

CompileResult
compileCircuit(const circuit::Circuit &logical, const hw::CouplingMap &map,
               const Layout &initial, const CompileOptions &options)
{
    Stopwatch clock;

    // Split trailing measurements from the unitary body.  Measurements are
    // re-attached after routing, mapped through the final layout, so the
    // classical bit of logical qubit l always receives l's value.
    circuit::Circuit body(logical.numQubits());
    std::vector<circuit::Gate> measures;
    std::vector<bool> measured(static_cast<std::size_t>(logical.numQubits()),
                               false);
    for (const circuit::Gate &g : logical.gates()) {
        if (g.type == circuit::GateType::MEASURE) {
            measured[static_cast<std::size_t>(g.q0)] = true;
            measures.push_back(g);
            continue;
        }
        if (g.type != circuit::GateType::BARRIER) {
            QAOA_CHECK(!measured[static_cast<std::size_t>(g.q0)],
                       "gate after measurement on q" << g.q0);
            if (g.arity() == 2)
                QAOA_CHECK(!measured[static_cast<std::size_t>(g.q1)],
                           "gate after measurement on q" << g.q1);
        }
        body.add(g);
    }

    if (options.layered_routing)
        body = circuit::withLayerBarriers(body);

    // Routing failures are hardware-state problems (fragmented or
    // degraded devices), not caller bugs — report them structurally.
    // Resilience interrupts (cancel / deadline / resource guard) keep
    // their own status class so the caller can distinguish "this input
    // cannot compile" from "this run was stopped"; none of the four
    // emits a partial circuit.
    auto structured_failure = [&](CompileStatus status,
                                  const char *what) {
        CompileResult failed;
        failed.compiled = circuit::Circuit(map.numQubits());
        failed.initial_layout = initial;
        failed.final_layout = initial;
        failed.status = status;
        failed.failure_reason = what;
        failed.report.compile_seconds = clock.seconds();
        return failed;
    };
    RoutedCircuit routed;
    try {
        routed = routeCircuit(body, map, initial, options.router);
    } catch (const run::CancelledError &e) {
        return structured_failure(CompileStatus::Cancelled, e.what());
    } catch (const run::TimedOutError &e) {
        return structured_failure(CompileStatus::TimedOut, e.what());
    } catch (const run::ResourceExceededError &e) {
        return structured_failure(CompileStatus::ResourceExceeded,
                                  e.what());
    } catch (const std::exception &e) {
        return structured_failure(CompileStatus::Failed, e.what());
    }

    if (options.layered_routing) {
        // The barriers only constrained routing; the emitted circuit is a
        // flat DAG again (matching how qiskit-style backends report
        // depth).
        circuit::Circuit flat(routed.physical.numQubits());
        for (const circuit::Gate &g : routed.physical.gates())
            if (g.type != circuit::GateType::BARRIER)
                flat.add(g);
        routed.physical = std::move(flat);
    }

    for (const circuit::Gate &m : measures)
        routed.physical.add(circuit::Gate::measure(
            routed.final_layout.physicalOf(m.q0), m.cbit));

#if QAOA_PIPELINE_SELF_CHECK
    // Translation validation of the router itself: the routed circuit,
    // replayed back to logical indices, must carry exactly the source
    // gate multiset on enabled couplings, and the SWAP replay must land
    // on the final layout the router reports.  Runs before peephole —
    // the optimizer legally deletes gates.
    // Source-level SWAPs are indistinguishable from routing SWAPs in the
    // replay, so the check only applies to SWAP-free sources (every
    // in-repo caller).
    if (logical.countType(circuit::GateType::SWAP) == 0) {
        const diag::Report rv = verify::verifyRouted(
            logical, routed.physical, map, initial.logToPhys(),
            routed.final_layout.logToPhys());
        QAOA_ASSERT(rv.clean(), "router output failed verification: "
                                    << rv.summary());
    }
#endif

    CompileResult result =
        finishCompile(std::move(routed.physical), initial,
                      routed.final_layout, routed.swap_count, options);
    if (!map.connected()) {
        result.status = CompileStatus::Degraded;
        result.diagnostics.push_back(
            "compiled on a fragmented device (" + map.name() + ")");
    }
    result.report.compile_seconds = clock.seconds();
    return result;
}

CompileResult
finishCompile(circuit::Circuit physical, const Layout &initial,
              const Layout &final_layout, int swap_count,
              const CompileOptions &options)
{
    if (options.peephole)
        physical = peepholeOptimize(physical);

    CompileResult result;
    result.physical = physical;
    result.compiled = options.decompose_to_basis
                          ? circuit::decomposeToBasis(physical)
                          : std::move(physical);
    if (options.peephole)
        result.compiled = peepholeOptimize(result.compiled);
    result.initial_layout = initial;
    result.final_layout = final_layout;
    result.report.depth = result.compiled.depth();
    result.report.gate_count = result.compiled.gateCount();
    result.report.cx_count =
        result.compiled.countType(circuit::GateType::CNOT);
    result.report.swap_count = swap_count;
    return result;
}

} // namespace qaoa::transpiler
