#include "qaoa/incremental.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qaoa::core {

IncrementalResult
icCompileCostLayer(const std::vector<ZZOp> &ops, const hw::CouplingMap &map,
                   const transpiler::Layout &initial, double gamma,
                   const IncrementalOptions &options)
{
    QAOA_CHECK(options.packing_limit >= 1, "packing limit must be >= 1");
    const graph::DistanceMatrix &dist =
        options.distances ? *options.distances : map.distances();

    Rng rng(options.seed);
    IncrementalResult result;
    result.physical = circuit::Circuit(map.numQubits());
    result.final_layout = initial;

    const int num_logical = initial.numLogical();
    std::vector<ZZOp> remaining = ops;

    // Router options for the per-layer backend compile: share the caller's
    // settings but score SWAPs against the same distance matrix used for
    // layer formation (hop for IC, 1/R-weighted for VIC) unless the
    // caller split the two (ablation hook).
    transpiler::RouterOptions router = options.router;
    router.distances =
        options.router_distances ? options.router_distances : &dist;

    while (!remaining.empty()) {
        // Cooperative check point: one poll per formed layer bounds the
        // cancellation latency of IC/VIC compiles to a single layer's
        // routing time.
        if (options.router.guard)
            options.router.guard->poll("incremental layer formation");
        // Step 1: sort ascending by current operand distance; equidistant
        // operations in random order (shuffle before the stable sort).
        auto op_distance = [&](const ZZOp &op) {
            int pa = result.final_layout.physicalOf(op.a);
            int pb = result.final_layout.physicalOf(op.b);
            return dist[static_cast<std::size_t>(pa)]
                       [static_cast<std::size_t>(pb)];
        };
        rng.shuffle(remaining);
        std::stable_sort(remaining.begin(), remaining.end(),
                         [&](const ZZOp &x, const ZZOp &y) {
                             return op_distance(x) < op_distance(y);
                         });

        // Greedy single-layer packing (same bin discipline as IP).
        std::vector<bool> used(static_cast<std::size_t>(num_logical),
                               false);
        std::vector<ZZOp> layer;
        std::vector<ZZOp> next_round;
        for (const ZZOp &op : remaining) {
            if (static_cast<int>(layer.size()) < options.packing_limit &&
                !used[static_cast<std::size_t>(op.a)] &&
                !used[static_cast<std::size_t>(op.b)]) {
                layer.push_back(op);
                used[static_cast<std::size_t>(op.a)] = true;
                used[static_cast<std::size_t>(op.b)] = true;
            } else {
                next_round.push_back(op);
            }
        }
        QAOA_ASSERT(!layer.empty(), "IC formed an empty layer");

        // Step 2: compile the partial circuit holding just this layer.
        circuit::Circuit partial(num_logical);
        for (const ZZOp &op : layer)
            partial.add(circuit::Gate::cphase(op.a, op.b,
                                              gamma * op.weight));
        router.seed = rng.fork();
        transpiler::RoutedCircuit routed = transpiler::routeCircuit(
            partial, map, result.final_layout, router);

        // Step 3 (incremental): stitch and carry the mapping forward.
        result.physical.append(routed.physical);
        result.final_layout = routed.final_layout;
        result.swap_count += routed.swap_count;
        ++result.layer_count;

        remaining = std::move(next_round);
    }
    return result;
}

} // namespace qaoa::core
