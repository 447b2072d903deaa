#include "qaoa/ising.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qaoa::core {

IsingModel::IsingModel(int num_spins)
{
    QAOA_CHECK(num_spins >= 0, "negative spin count");
    linear_.assign(static_cast<std::size_t>(num_spins), 0.0);
}

void
IsingModel::checkSpin(int i) const
{
    QAOA_CHECK(i >= 0 && i < numSpins(),
               "spin " << i << " out of range [0, " << numSpins() << ")");
}

void
IsingModel::addLinear(int i, double h)
{
    checkSpin(i);
    linear_[static_cast<std::size_t>(i)] += h;
}

void
IsingModel::addQuadratic(int i, int k, double j)
{
    checkSpin(i);
    checkSpin(k);
    QAOA_CHECK(i != k, "quadratic term needs two distinct spins");
    if (i > k)
        std::swap(i, k);
    for (ZZOp &op : quadratic_) {
        if (op.a == i && op.b == k) {
            op.weight += j;
            return;
        }
    }
    quadratic_.push_back({i, k, j});
}

double
IsingModel::linear(int i) const
{
    checkSpin(i);
    return linear_[static_cast<std::size_t>(i)];
}

double
IsingModel::quadratic(int i, int k) const
{
    checkSpin(i);
    checkSpin(k);
    if (i > k)
        std::swap(i, k);
    for (const ZZOp &op : quadratic_)
        if (op.a == i && op.b == k)
            return op.weight;
    return 0.0;
}

std::vector<ZZOp>
IsingModel::quadraticOps() const
{
    std::vector<ZZOp> ops;
    for (const ZZOp &op : quadratic_)
        if (op.weight != 0.0)
            ops.push_back(op);
    return ops;
}

CostHamiltonian
IsingModel::cost() const
{
    CostHamiltonian cost{numSpins(), quadraticOps(), linear_};
    for (ZZOp &op : cost.zz)
        op.weight *= 2.0;
    for (double &h : cost.z)
        h *= 2.0;
    return cost;
}

double
IsingModel::energy(std::uint64_t assignment) const
{
    auto spin = [assignment](int i) {
        return ((assignment >> i) & 1ULL) ? -1.0 : 1.0;
    };
    double e = offset_;
    for (int i = 0; i < numSpins(); ++i)
        e += linear_[static_cast<std::size_t>(i)] * spin(i);
    for (const ZZOp &op : quadratic_)
        e += op.weight * spin(op.a) * spin(op.b);
    return e;
}

IsingModel::GroundState
IsingModel::groundState() const
{
    QAOA_CHECK(numSpins() >= 1 && numSpins() <= 26,
               "exhaustive ground state limited to 1..26 spins");
    GroundState best;
    best.energy = energy(0);
    const std::uint64_t count = 1ULL << numSpins();
    for (std::uint64_t a = 1; a < count; ++a) {
        double e = energy(a);
        if (e < best.energy) {
            best.energy = e;
            best.assignment = a;
        }
    }
    return best;
}

IsingModel
maxcutToIsing(const graph::Graph &problem)
{
    // cut(x) = sum w (1 - s_i s_j) / 2, so minimizing
    // sum (w/2) s_i s_j - sum w/2 equals maximizing the cut and the
    // ground energy is exactly -MaxCut.
    IsingModel model(problem.numNodes());
    for (const graph::Edge &e : problem.edges()) {
        model.addQuadratic(e.u, e.v, e.weight / 2.0);
        model.addOffset(-e.weight / 2.0);
    }
    return model;
}

IsingModel
partitionToIsing(const std::vector<double> &numbers)
{
    QAOA_CHECK(!numbers.empty(), "empty number set");
    // (sum a_i s_i)^2 = sum a_i^2 + 2 sum_{i<j} a_i a_j s_i s_j.
    IsingModel model(static_cast<int>(numbers.size()));
    double sq = 0.0;
    for (double a : numbers)
        sq += a * a;
    model.addOffset(sq);
    for (std::size_t i = 0; i < numbers.size(); ++i)
        for (std::size_t j = i + 1; j < numbers.size(); ++j)
            model.addQuadratic(static_cast<int>(i), static_cast<int>(j),
                               2.0 * numbers[i] * numbers[j]);
    return model;
}

IsingModel
vertexCoverToIsing(const graph::Graph &problem, double penalty)
{
    QAOA_CHECK(penalty > 1.0, "vertex-cover penalty must exceed 1");
    // minimize sum x_i + P sum_(i,j) (1-x_i)(1-x_j), x = (1-s)/2.
    const int n = problem.numNodes();
    IsingModel model(n);
    for (int i = 0; i < n; ++i) {
        model.addLinear(i, -0.5);
        model.addOffset(0.5);
    }
    for (const graph::Edge &e : problem.edges()) {
        model.addOffset(penalty / 4.0);
        model.addLinear(e.u, penalty / 4.0);
        model.addLinear(e.v, penalty / 4.0);
        model.addQuadratic(e.u, e.v, penalty / 4.0);
    }
    return model;
}

} // namespace qaoa::core
