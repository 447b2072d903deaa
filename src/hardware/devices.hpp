/**
 * @file
 * Device library: the three target architectures of the evaluation (§V-B)
 * plus the simple topologies used in discussions and tests.
 *
 *  - ibmq_20_tokyo      — 20 qubits, dense 4x5 lattice with diagonals
 *                         (Fig. 3(a)); golden connectivity strengths of
 *                         Fig. 3(b) are unit-tested.
 *  - ibmq_16_melbourne  — 15 qubits, two-row ladder; ships with the
 *                         4/8/2020 CNOT-error calibration snapshot of
 *                         Fig. 10(a).
 *  - grid NxM           — the hypothetical 36-qubit 6x6 device (§V-H).
 *  - linear / ring      — Fig. 1(d) and the §VI 8-qubit cyclic comparison.
 */

#ifndef QAOA_HARDWARE_DEVICES_HPP
#define QAOA_HARDWARE_DEVICES_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hardware/calibration.hpp"
#include "hardware/coupling_map.hpp"
#include "hardware/faults.hpp"

namespace qaoa::hw {

/** 20-qubit ibmq_20_tokyo coupling map (Fig. 3(a)). */
CouplingMap ibmqTokyo20();

/** 15-qubit ibmq_16_melbourne coupling map. */
CouplingMap ibmqMelbourne15();

/**
 * CNOT-error calibration snapshot of ibmq_16_melbourne (Fig. 10(a),
 * calibrated 4/8/2020).
 *
 * The 20 reported error rates are assigned to the 20 coupling edges in
 * canonical (sorted) edge order; the multiset of rates matches the figure
 * exactly, which preserves the edge-to-edge variability VIC exploits (the
 * figure's node-to-edge mapping is not fully recoverable from the text).
 */
CalibrationData melbourneCalibration(const CouplingMap &melbourne);

/** n-qubit linear chain (Fig. 1(d) uses n = 4). */
CouplingMap linearDevice(int n);

/** n-qubit ring — the 8-qubit cyclic architecture of §VI. */
CouplingMap ringDevice(int n);

/** rows x cols grid device — §V-H uses 6x6. */
CouplingMap gridDevice(int rows, int cols);

/**
 * 20-qubit ibmq_poughkeepsie — the device of the §VI crosstalk
 * discussion (Murali et al. found 5 of its couplings crosstalk-prone).
 * Ladder of three horizontal rows with sparse rungs.
 */
CouplingMap ibmqPoughkeepsie20();

/**
 * 27-qubit IBM heavy-hex (Falcon) lattice — the coupling family of
 * IBM's post-2020 devices; included so the methodologies can be
 * evaluated on current hardware shapes.
 */
CouplingMap heavyHexFalcon27();

/**
 * Device by CLI/wire name: "tokyo", "melbourne", "poughkeepsie",
 * "heavyhex", "grid6x6", "linearN", "ringN".  One shared parser for
 * qaoa_compile, qaoa_lint and the serve request decoder.
 *
 * @throws std::runtime_error on an unknown name or a malformed
 *         linear/ring size.
 */
CouplingMap deviceByName(const std::string &name);

/**
 * Default calibration snapshot for @p map: the Fig. 10(a) Melbourne
 * data when the map is ibmq_16_melbourne, CalibrationData defaults
 * otherwise.
 */
CalibrationData defaultCalibration(const CouplingMap &map);

/**
 * The device a compile runs against: the deviceByName() map and its
 * calibration, seen through a FaultInjector when the fault spec is not
 * empty.  The one copy of this wiring for qaoa_compile, qaoa_lint and
 * the serve requests.  Not copyable or movable: the calibration and the
 * injector point at the owned map.
 */
class DeviceView
{
  public:
    using Calibrate = std::function<CalibrationData(const CouplingMap &)>;

    DeviceView(const std::string &name, const FaultSpec &faults,
               const Calibrate &calibrate = defaultCalibration);

    DeviceView(const DeviceView &) = delete;
    DeviceView &operator=(const DeviceView &) = delete;

    /** The map to compile against (the degraded view when faulty). */
    const CouplingMap &map() const;

    /** Calibration matching map(). */
    const CalibrationData &calibration() const;

    /** Qubits a compile may use (the largest surviving component);
     *  nullptr on a healthy device. */
    const std::vector<char> *allowedQubits() const;

    /** True when faults removed qubits or couplings (drift alone is
     *  not a degradation). */
    bool degraded() const;

    /** Number of qubits a compile may use. */
    int usableQubits() const;

    /** What the fault injection did, one line per effect. */
    std::vector<std::string> faultNotes() const;

  private:
    CouplingMap base_map_;
    CalibrationData base_calib_;
    std::optional<FaultInjector> injector_;
};

} // namespace qaoa::hw

#endif // QAOA_HARDWARE_DEVICES_HPP
