/**
 * @file
 * What qaoa_compile and qaoa_lint share: the fault-injection flags and
 * the sizing rule of the Fig. 11 workload.
 */

#ifndef QAOA_TOOLS_TOOL_SUPPORT_HPP
#define QAOA_TOOLS_TOOL_SUPPORT_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/text.hpp"
#include "hardware/devices.hpp"

namespace qaoa::tools {

/** A setter storing the non-empty list @p parse reads into @p out. */
template <typename T, typename Parse>
cli::FlagTable::Setter
listSetter(std::vector<T> &out, Parse parse)
{
    return [&out, parse](const std::string &value) {
        if (value.empty())
            return Status(ErrorCode::InvalidArgument, "empty list");
        StatusOr<std::vector<T>> items = parse(value);
        if (!items.ok())
            return items.status();
        out = std::move(items).value();
        return Status();
    };
}

/** Registers the fault-injection flags, storing into @p faults. */
inline void
addFaultFlags(cli::FlagTable &flags, hw::FaultSpec &faults)
{
    flags.section("fault injection (hardware/faults.hpp):")
        .real("--fault-edge-rate", "R", "disable each coupling with prob R",
              faults.edge_fault_rate)
        .real("--fault-qubit-rate", "R", "kill each qubit with prob R",
              faults.qubit_fault_rate)
        .uint64("--fault-seed", "S",
                "seed of the fault stream (default 2020)", faults.seed)
        .add("--dead-qubits", "LIST", "explicit dead qubits, e.g. 3,7,12",
             listSetter(faults.dead_qubits, [](const std::string &v) {
                 return text::parseIntList(v);
             }))
        .add("--disable-edges", "LIST", "explicit couplings, e.g. 0-1,4-5",
             listSetter(faults.disabled_edges, text::parsePairList));
}

/**
 * Node count of the Fig. 11 workload on @p device: the paper's n = 20,
 * capped by the usable qubits and rounded down to even (every k-regular
 * family, k = 3..8, needs n*k even); an error below 10.
 */
inline StatusOr<int>
fig11Nodes(const hw::DeviceView &device)
{
    const int usable = device.usableQubits();
    const int n = std::min(20, usable) / 2 * 2;
    if (n < 10)
        return Status(ErrorCode::InvalidArgument,
                      "fig11 workload needs >= 10 usable qubits, device "
                      "has " +
                          std::to_string(usable));
    return n;
}

} // namespace qaoa::tools

#endif // QAOA_TOOLS_TOOL_SUPPORT_HPP
