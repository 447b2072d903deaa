#include "qaoa/problem.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"

namespace qaoa::core {

std::vector<ZZOp>
costOperations(const graph::Graph &problem)
{
    std::vector<ZZOp> ops;
    ops.reserve(static_cast<std::size_t>(problem.numEdges()));
    for (const graph::Edge &e : problem.edges())
        ops.push_back({e.u, e.v, e.weight});
    return ops;
}

CostHamiltonian
maxcutCost(const graph::Graph &problem)
{
    return {problem.numNodes(), costOperations(problem), {}};
}

sim::DiagonalTable
costDiagonal(const CostHamiltonian &cost, const run::RunGuard *guard)
{
    const int n = cost.num_qubits;
    QAOA_CHECK(n >= 1 && n <= 26,
               "cost diagonal supports 1..26 qubits, got " << n);
    QAOA_CHECK(cost.z.size() <= static_cast<std::size_t>(n),
               "cost has " << cost.z.size() << " fields for " << n
                           << " qubits");
    std::vector<std::vector<std::pair<int, double>>> adjacent(
        static_cast<std::size_t>(n));
    for (const ZZOp &op : cost.zz) {
        QAOA_CHECK(op.a >= 0 && op.a < n && op.b >= 0 && op.b < n &&
                       op.a != op.b,
                   "invalid ZZ term (" << op.a << ", " << op.b << ") on "
                                       << n << " qubits");
        adjacent[static_cast<std::size_t>(op.a)].emplace_back(op.b,
                                                              op.weight);
        adjacent[static_cast<std::size_t>(op.b)].emplace_back(op.a,
                                                              op.weight);
    }

    const std::uint64_t size = 1ULL << n;
    if (guard) {
        guard->poll("cost diagonal sweep");
        guard->checkAllocation("cost diagonal scratch",
                               sizeof(double) * size);
        guard->checkAllocation("cost diagonal values",
                               sizeof(double) * size);
        guard->checkAllocation("cost diagonal index",
                               sizeof(std::uint32_t) * size);
    }
    std::vector<double> theta(size);
    theta[0] = 0.0;
    for (double h : cost.z)
        theta[0] -= 0.5 * h;
    for (std::uint64_t z = 1; z < size; ++z) {
        const int b = std::countr_zero(z);
        const std::uint64_t rest = z & (z - 1);
        double t = theta[rest];
        for (const auto &[u, w] : adjacent[static_cast<std::size_t>(b)])
            t += ((rest >> u) & 1ULL) ? -w : w;
        if (static_cast<std::size_t>(b) < cost.z.size())
            t += cost.z[static_cast<std::size_t>(b)];
        theta[z] = t;
    }

    sim::DiagonalTable table;
    table.values = theta;
    std::sort(table.values.begin(), table.values.end());
    table.values.erase(
        std::unique(table.values.begin(), table.values.end()),
        table.values.end());
    table.values.shrink_to_fit();
    table.index.resize(size);
    for (std::uint64_t z = 0; z < size; ++z)
        table.index[z] = static_cast<std::uint32_t>(
            std::lower_bound(table.values.begin(), table.values.end(),
                             theta[z]) -
            table.values.begin());
    return table;
}

circuit::Circuit
buildQaoaCircuit(const CostHamiltonian &cost,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas, bool measure)
{
    QAOA_CHECK(gammas.size() == betas.size(),
               "need one (gamma, beta) pair per level; got "
                   << gammas.size() << " gammas and " << betas.size()
                   << " betas");
    QAOA_CHECK(!gammas.empty(), "QAOA needs at least one level");

    const int n = cost.num_qubits;
    circuit::Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.add(circuit::Gate::h(q));
    for (std::size_t level = 0; level < gammas.size(); ++level) {
        const double gamma = gammas[level];
        for (const ZZOp &op : cost.zz)
            c.add(circuit::Gate::cphase(op.a, op.b, gamma * op.weight));
        for (std::size_t q = 0; q < cost.z.size(); ++q)
            if (cost.z[q] != 0.0)
                c.add(circuit::Gate::rz(static_cast<int>(q),
                                        gamma * cost.z[q]));
        for (int q = 0; q < n; ++q)
            c.add(circuit::Gate::rx(q, 2.0 * betas[level]));
    }
    if (measure)
        for (int q = 0; q < n; ++q)
            c.add(circuit::Gate::measure(q, q));
    return c;
}

circuit::Circuit
buildQaoaCircuit(int num_qubits, const std::vector<ZZOp> &cost_ops,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas, bool measure)
{
    return buildQaoaCircuit(CostHamiltonian{num_qubits, cost_ops, {}},
                            gammas, betas, measure);
}

circuit::Circuit
buildQaoaCircuit(const graph::Graph &problem,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas, bool measure)
{
    return buildQaoaCircuit(maxcutCost(problem), gammas, betas, measure);
}

} // namespace qaoa::core
