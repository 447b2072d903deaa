#include "hardware/devices.hpp"

#include <array>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/text.hpp"
#include "graph/generators.hpp"

namespace qaoa::hw {

CouplingMap
ibmqTokyo20()
{
    // 4 rows x 5 columns; nodes row-major (row r holds 5r .. 5r+4).
    // Horizontal + vertical lattice edges plus the 12 diagonal couplers.
    // The Fig. 3(b) connectivity strengths (e.g. qubit-0 -> 7,
    // qubit-7/qubit-12 -> 18) pin this edge list down; they are verified
    // in tests/test_hardware.cpp.
    static const std::array<std::pair<int, int>, 43> edges = {{
        // horizontal
        {0, 1}, {1, 2}, {2, 3}, {3, 4},
        {5, 6}, {6, 7}, {7, 8}, {8, 9},
        {10, 11}, {11, 12}, {12, 13}, {13, 14},
        {15, 16}, {16, 17}, {17, 18}, {18, 19},
        // vertical
        {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
        {5, 10}, {6, 11}, {7, 12}, {8, 13}, {9, 14},
        {10, 15}, {11, 16}, {12, 17}, {13, 18}, {14, 19},
        // diagonal
        {1, 7}, {2, 6}, {3, 9}, {4, 8},
        {5, 11}, {6, 10}, {7, 13}, {8, 12},
        {11, 17}, {12, 16}, {13, 19}, {14, 18},
    }};
    graph::Graph g(20);
    for (auto [u, v] : edges)
        g.addEdge(u, v);
    return CouplingMap(std::move(g), "ibmq_20_tokyo");
}

CouplingMap
ibmqMelbourne15()
{
    // Two-row ladder: top row 0..6, bottom row 14..7 (reversed), with
    // vertical rungs — the standard ibmq_16_melbourne coupling map (15
    // operational qubits).
    static const std::array<std::pair<int, int>, 20> edges = {{
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},          // top row
        {14, 13}, {13, 12}, {12, 11}, {11, 10}, {10, 9}, {9, 8},
        {8, 7},                                                   // bottom
        {0, 14}, {1, 13}, {2, 12}, {3, 11}, {4, 10}, {5, 9},
        {6, 8},                                                   // rungs
    }};
    graph::Graph g(15);
    for (auto [u, v] : edges)
        g.addEdge(u, v);
    return CouplingMap(std::move(g), "ibmq_16_melbourne");
}

CalibrationData
melbourneCalibration(const CouplingMap &melbourne)
{
    QAOA_CHECK(melbourne.numQubits() == 15 &&
                   melbourne.graph().numEdges() == 20,
               "calibration snapshot requires the melbourne topology");
    // The 20 CNOT error rates reported in Fig. 10(a) (4/8/2020 snapshot),
    // assigned in canonical sorted-edge order.
    static const std::array<double, 20> rates = {{
        1.87e-2, 1.77e-2, 2.85e-2, 7.63e-2, 8.29e-2,
        1.54e-2, 8.60e-2, 2.26e-2, 5.03e-2, 4.16e-2,
        7.63e-2, 5.80e-2, 2.96e-2, 3.68e-2, 4.11e-2,
        4.70e-2, 7.78e-2, 3.46e-2, 3.89e-2, 2.87e-2,
    }};
    CalibrationData calib(melbourne);
    const auto &edges = melbourne.graph().edges();
    QAOA_ASSERT(edges.size() == rates.size(), "edge/rate count mismatch");
    for (std::size_t i = 0; i < edges.size(); ++i)
        calib.setCnotError(edges[i].u, edges[i].v, rates[i]);
    return calib;
}

CouplingMap
linearDevice(int n)
{
    QAOA_CHECK(n >= 2, "linear device needs at least 2 qubits");
    return CouplingMap(graph::pathGraph(n),
                       "linear_" + std::to_string(n));
}

CouplingMap
ringDevice(int n)
{
    QAOA_CHECK(n >= 3, "ring device needs at least 3 qubits");
    return CouplingMap(graph::cycleGraph(n), "ring_" + std::to_string(n));
}

CouplingMap
ibmqPoughkeepsie20()
{
    // Three-row ladder with sparse rungs (qiskit FakePoughkeepsie).
    static const std::array<std::pair<int, int>, 23> edges = {{
        {0, 1}, {1, 2}, {2, 3}, {3, 4},                    // top row
        {5, 6}, {6, 7}, {7, 8}, {8, 9},                    // second row
        {10, 11}, {11, 12}, {12, 13}, {13, 14},            // third row
        {15, 16}, {16, 17}, {17, 18}, {18, 19},            // bottom row
        {0, 5}, {4, 9},                                    // rungs 1-2
        {5, 10}, {7, 12}, {9, 14},                         // rungs 2-3
        {10, 15}, {14, 19},                                // rungs 3-4
    }};
    graph::Graph g(20);
    for (auto [u, v] : edges)
        g.addEdge(u, v);
    return CouplingMap(std::move(g), "ibmq_poughkeepsie");
}

CouplingMap
heavyHexFalcon27()
{
    // The 27-qubit Falcon heavy-hex layout (e.g. ibmq_montreal).
    static const std::array<std::pair<int, int>, 28> edges = {{
        {0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 5}, {4, 7}, {5, 8},
        {6, 7}, {7, 10}, {8, 9}, {8, 11}, {10, 12}, {11, 14}, {12, 13},
        {12, 15}, {13, 14}, {14, 16}, {15, 18}, {16, 19}, {17, 18},
        {18, 21}, {19, 20}, {19, 22}, {21, 23}, {22, 25}, {23, 24},
        {24, 25}, {25, 26},
    }};
    graph::Graph g(27);
    for (auto [u, v] : edges)
        g.addEdge(u, v);
    return CouplingMap(std::move(g), "heavy_hex_falcon_27");
}

CouplingMap
gridDevice(int rows, int cols)
{
    QAOA_CHECK(rows >= 1 && cols >= 1 && rows * cols >= 2,
               "grid device needs at least 2 qubits");
    return CouplingMap(graph::gridGraph(rows, cols),
                       "grid_" + std::to_string(rows) + "x" +
                           std::to_string(cols));
}

namespace {

/** "linear7" -> 7; throws on a missing or malformed size. */
int
parseSize(const std::string &name, std::size_t prefix_len)
{
    const StatusOr<int> size = text::parseInt(name.substr(prefix_len), 0);
    QAOA_CHECK(size.ok(), "bad device size in \"" << name << "\"");
    return size.value();
}

} // namespace

CouplingMap
deviceByName(const std::string &name)
{
    if (name == "tokyo")
        return ibmqTokyo20();
    if (name == "melbourne")
        return ibmqMelbourne15();
    if (name == "poughkeepsie")
        return ibmqPoughkeepsie20();
    if (name == "heavyhex")
        return heavyHexFalcon27();
    if (name == "grid6x6")
        return gridDevice(6, 6);
    if (name.rfind("linear", 0) == 0)
        return linearDevice(parseSize(name, 6));
    if (name.rfind("ring", 0) == 0)
        return ringDevice(parseSize(name, 4));
    QAOA_CHECK(false, "unknown device: " << name);
    return ibmqTokyo20(); // unreachable
}

CalibrationData
defaultCalibration(const CouplingMap &map)
{
    if (map.name() == "ibmq_16_melbourne")
        return melbourneCalibration(map);
    return CalibrationData(map);
}

DeviceView::DeviceView(const std::string &name, const FaultSpec &faults,
                       const Calibrate &calibrate)
    : base_map_(deviceByName(name)), base_calib_(calibrate(base_map_))
{
    if (!faults.empty())
        injector_.emplace(base_map_, faults, &base_calib_);
}

const CouplingMap &
DeviceView::map() const
{
    return injector_ ? injector_->map() : base_map_;
}

const CalibrationData &
DeviceView::calibration() const
{
    return injector_ ? injector_->calibration() : base_calib_;
}

const std::vector<char> *
DeviceView::allowedQubits() const
{
    return injector_ ? &injector_->usable() : nullptr;
}

bool
DeviceView::degraded() const
{
    return injector_ && (!injector_->deadQubits().empty() ||
                         !injector_->disabledEdges().empty());
}

int
DeviceView::usableQubits() const
{
    return injector_ ? injector_->usableCount() : base_map_.numQubits();
}

std::vector<std::string>
DeviceView::faultNotes() const
{
    return injector_ ? injector_->notes() : std::vector<std::string>{};
}

} // namespace qaoa::hw
