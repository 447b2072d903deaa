#include "circuit/circuit.hpp"

#include <algorithm>
#include <sstream>

#include "circuit/layers.hpp"
#include "common/error.hpp"

namespace qaoa::circuit {

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits)
{
    QAOA_CHECK(num_qubits >= 0, "negative register size");
}

void
Circuit::add(const Gate &g)
{
    if (g.type != GateType::BARRIER) {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_,
                   "operand q" << g.q0 << " outside register of size "
                               << num_qubits_);
        if (g.arity() == 2)
            QAOA_CHECK(g.q1 >= 0 && g.q1 < num_qubits_,
                       "operand q" << g.q1 << " outside register of size "
                                   << num_qubits_);
    }
    gates_.push_back(g);
}

void
Circuit::append(const Circuit &other)
{
    QAOA_CHECK(other.num_qubits_ <= num_qubits_,
               "cannot append a circuit over " << other.num_qubits_
                                               << " qubits onto "
                                               << num_qubits_);
    gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
}

int
Circuit::gateCount() const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.type != GateType::BARRIER)
            ++n;
    return n;
}

int
Circuit::twoQubitGateCount() const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (isTwoQubit(g.type))
            ++n;
    return n;
}

int
Circuit::countType(GateType type) const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.type == type)
            ++n;
    return n;
}

std::map<std::string, int>
Circuit::opCounts() const
{
    std::map<std::string, int> counts;
    for (const Gate &g : gates_)
        if (g.type != GateType::BARRIER)
            ++counts[gateName(g.type)];
    return counts;
}

int
Circuit::depth() const
{
    const std::vector<int> layers = gateLayers(*this);
    int depth = 0;
    for (std::size_t gi = 0; gi < gates_.size(); ++gi)
        if (gates_[gi].type != GateType::BARRIER)
            depth = std::max(depth, layers[gi] + 1);
    return depth;
}

std::string
Circuit::toString() const
{
    std::ostringstream os;
    os << "circuit(" << num_qubits_ << " qubits, " << gateCount()
       << " gates)\n";
    for (const Gate &g : gates_)
        os << "  " << g.toString() << "\n";
    return os.str();
}

} // namespace qaoa::circuit
