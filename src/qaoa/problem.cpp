#include "qaoa/problem.hpp"

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
