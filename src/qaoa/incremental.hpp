/**
 * @file
 * IC — Incremental Compilation, and its variation-aware variant VIC
 * (§IV-C, §IV-D, Fig. 5 and Fig. 6).
 *
 * CPHASE layers are formed one at a time: remaining operations are sorted
 * ascending by the distance between their operands *under the current
 * mapping*, a single layer is packed greedily, routed, and the updated
 * mapping feeds the next layer's sort.  VIC is the same loop with
 * distances from the reliability-weighted Floyd–Warshall matrix
 * (edge weight 1/R), so reliable couplings are preferred and unreliable
 * operations drift to later layers.
 */

#ifndef QAOA_QAOA_INCREMENTAL_HPP
#define QAOA_QAOA_INCREMENTAL_HPP

#include <cstdint>

#include "circuit/circuit.hpp"
#include "graph/shortest_paths.hpp"
#include "hardware/coupling_map.hpp"
#include "qaoa/problem.hpp"
#include "transpiler/layout.hpp"
#include "transpiler/router.hpp"

namespace qaoa::core {

/** Options for one incremental cost-layer compilation. */
struct IncrementalOptions
{
    /** Maximum CPHASE operations per formed layer (§V-H). */
    int packing_limit = 1 << 30;

    /** Router tunables (the per-layer backend compile). */
    transpiler::RouterOptions router;

    /**
     * Distance matrix for the layer-formation sort and router scoring.
     * nullptr = hop distances (IC); a weightedDistances() matrix = VIC.
     */
    const graph::DistanceMatrix *distances = nullptr;

    /**
     * Optional separate matrix for router SWAP scoring only; when set,
     * `distances` drives layer ordering and this drives routing.  Lets
     * ablations split VIC's two mechanisms (reliability-aware gate
     * ordering vs reliability-aware SWAP paths, the VQM idea of [50]).
     * nullptr = use `distances` for both.
     */
    const graph::DistanceMatrix *router_distances = nullptr;

    /** Seed for random tie-breaking among equidistant operations. */
    std::uint64_t seed = 29;
};

/** Output of icCompileCostLayer(). */
struct IncrementalResult
{
    circuit::Circuit physical{0};      ///< Stitched cost circuit (physical
                                       ///< CPHASEs + SWAPs).
    transpiler::Layout final_layout;   ///< Mapping after the last layer.
    int swap_count = 0;                ///< SWAPs inserted in total.
    int layer_count = 0;               ///< CPHASE layers formed.
};

/**
 * Incrementally compiles one cost layer (all CPHASEs of one QAOA level).
 *
 * @param ops     The level's cost operations.
 * @param map     Target device.
 * @param initial Layout at the start of the level.
 * @param gamma   Cost angle (CPHASE parameter = gamma * op.weight).
 * @param options IC/VIC options.
 */
IncrementalResult icCompileCostLayer(const std::vector<ZZOp> &ops,
                                     const hw::CouplingMap &map,
                                     const transpiler::Layout &initial,
                                     double gamma,
                                     const IncrementalOptions &options = {});

} // namespace qaoa::core

#endif // QAOA_QAOA_INCREMENTAL_HPP
