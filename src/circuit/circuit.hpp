/**
 * @file
 * Quantum circuit container and the paper's circuit-quality metrics.
 *
 * Depth is the length of the critical path counting every gate (including
 * measurements) as one time step — the definition of §V-A.  Gate count is
 * the total number of operations (BARRIERs excluded).
 */

#ifndef QAOA_CIRCUIT_CIRCUIT_HPP
#define QAOA_CIRCUIT_CIRCUIT_HPP

#include <map>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qaoa::circuit {

/**
 * Ordered list of gates over a fixed qubit register.
 *
 * The same type represents logical circuits (operands are program qubits)
 * and physical circuits (operands are hardware qubits); the transpiler
 * documents which one each function produces.
 */
class Circuit
{
  public:
    /** Creates an empty circuit over @p num_qubits qubits. */
    explicit Circuit(int num_qubits = 0);

    /** Number of qubits in the register. */
    int numQubits() const { return num_qubits_; }

    /** Appends a gate; operands must be inside the register. */
    void add(const Gate &g);

    /** Pre-allocates storage for @p num_gates gates (used by bulk
     *  loaders such as the qbin decoder for a single-allocation fill). */
    void reserve(std::size_t num_gates) { gates_.reserve(num_gates); }

    /** Appends every gate of @p other (registers must match in size). */
    void append(const Circuit &other);

    /** All gates in program order. */
    const std::vector<Gate> &gates() const { return gates_; }

    /** Number of gates, BARRIERs excluded. */
    int gateCount() const;

    /** Number of two-qubit gates. */
    int twoQubitGateCount() const;

    /** Number of gates of the given type. */
    int countType(GateType type) const;

    /** Histogram of gate mnemonics -> counts (BARRIERs excluded). */
    std::map<std::string, int> opCounts() const;

    /**
     * Critical-path depth.
     *
     * Each gate (including MEASURE) occupies one time step on every qubit
     * it touches; BARRIER synchronizes all qubits without consuming a
     * step.  Matches the §V-A definition used for all reported numbers:
     * the deepest non-BARRIER layer of circuit::gateLayers(), plus one.
     */
    int depth() const;

    /** True when the circuit has no gates. */
    bool empty() const { return gates_.empty(); }

    /** Multi-line dump (one gate per line) for debugging. */
    std::string toString() const;

  private:
    int num_qubits_;
    std::vector<Gate> gates_;
};

} // namespace qaoa::circuit

#endif // QAOA_CIRCUIT_CIRCUIT_HPP
