/**
 * @file
 * Ablation: CPHASE layer-formation strategies against the MOQ lower
 * bound.
 *
 * Layer formation is edge coloring (§IV-B formulates it as bin
 * packing): MOQ = Δ is the information-theoretic lower bound, IP is the
 * paper's first-fit-decreasing greedy, Misra–Gries certifies Δ+1, and
 * commutation-aware ASAP recovers parallelism from *any* input order
 * without an explicit packing pass.  This bench compares achieved layer
 * counts and formation time across density.
 */

#include <iostream>

#include "bench_util.hpp"
#include "circuit/layers.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "metrics/harness.hpp"
#include "qaoa/edge_coloring.hpp"
#include "qaoa/ip.hpp"
#include "qaoa/problem.hpp"
#include "qaoa/profile_stats.hpp"
#include "sim/commutation.hpp"

int
main(int argc, char **argv)
{
    using namespace qaoa;
    bench::BenchConfig config = bench::parseArgs(argc, argv);
    const int count = config.instances(10, 40);

    Table table({"edges/node", "MOQ (lower bound)", "IP layers",
                 "Misra-Gries layers", "commutation-aware ASAP",
                 "random-order ASAP"});
    for (int k : {3, 4, 6, 8}) {
        auto instances = metrics::regularInstances(
            20, k, count, static_cast<std::uint64_t>(k) * 71);
        Accumulator moq, ip_layers, mg_layers, ca_layers, plain_layers;
        Rng seeder(5);
        for (const graph::Graph &g : instances) {
            std::vector<core::ZZOp> ops = core::costOperations(g);
            Rng rng(seeder.fork());
            rng.shuffle(ops); // random input order throughout

            moq.add(core::maxOpsPerQubit(ops, 20));
            Rng ip_rng(rng.fork());
            ip_layers.add(static_cast<double>(
                core::ipOrder(ops, 20, ip_rng).layers.size()));
            mg_layers.add(static_cast<double>(
                core::edgeColoringLayers(ops, 20).size()));

            circuit::Circuit c(20);
            for (const auto &op : ops)
                c.add(circuit::Gate::cphase(op.a, op.b, 0.5));
            ca_layers.add(sim::commutationAwareLayerCount(c));
            plain_layers.add(circuit::layerCount(c));
        }
        table.addRow({Table::num(static_cast<long long>(k)),
                      Table::num(moq.mean(), 2),
                      Table::num(ip_layers.mean(), 2),
                      Table::num(mg_layers.mean(), 2),
                      Table::num(ca_layers.mean(), 2),
                      Table::num(plain_layers.mean(), 2)});
    }
    bench::emit(config,
                "Ablation — CPHASE layer formation, 20-node k-regular "
                "graphs (" +
                    std::to_string(count) + " instances/row)",
                table);
    std::cout << "expected shape: Misra-Gries <= MOQ+1 always; IP and\n"
                 "commutation-aware ASAP land within ~1-2 layers of the\n"
                 "bound; plain ASAP on a random order is far worse.\n";
    return 0;
}
