#include "verify/verifier.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <map>
#include <numbers>
#include <sstream>
#include <tuple>
#include <utility>

#include "circuit/commutation.hpp"
#include "circuit/gate.hpp"
#include "common/error.hpp"

namespace qaoa::verify {

using diag::Rule;

namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/** Circular distance between two angles (both reduced mod 2π). */
double
angleDistance(double a, double b)
{
    return std::abs(std::remainder(a - b, kTwoPi));
}

/** True when the angle is ≡ 0 (mod 2π) within @p tol. */
bool
angleIsZero(double a, double tol)
{
    return std::abs(std::remainder(a, kTwoPi)) <= tol;
}

/**
 * Canonical multiset key of a gate: type, operands (sorted for symmetric
 * two-qubit gates), classical bit and exact parameters.  Exact double
 * comparison is intentional — routing copies gates verbatim, so a routed
 * gate either matches its source bit-for-bit or something rewrote it.
 */
using GateKey = std::tuple<int, int, int, int, double, double, double>;

GateKey
gateKey(const Gate &g)
{
    int a = g.q0, b = g.q1;
    if (g.arity() == 2 && circuit::isSymmetricTwoQubit(g.type) && a > b)
        std::swap(a, b);
    return {static_cast<int>(g.type), a, b, g.cbit, g.params[0],
            g.params[1], g.params[2]};
}

/** Renders a gate key back into a readable form for diagnostics. */
std::string
describeKey(const GateKey &key)
{
    Gate g;
    g.type = static_cast<GateType>(std::get<0>(key));
    g.q0 = std::get<1>(key);
    g.q1 = std::get<2>(key);
    g.cbit = std::get<3>(key);
    g.params = {std::get<4>(key), std::get<5>(key), std::get<6>(key)};
    return g.toString();
}

/** Walk-time state shared by the replay helpers. */
struct Walker
{
    const Circuit &physical;
    const std::vector<int> &layers;
    diag::Report &report;
    std::vector<int> phys_to_log;
    std::vector<char> measured;

    /** Validates operand indices; reports QV012 and returns false on a
     *  malformed gate so the walk can skip it. */
    bool operandsValid(const Gate &g, int index)
    {
        if (g.type == GateType::BARRIER)
            return true;
        const int p = physical.numQubits();
        if (g.q0 < 0 || g.q0 >= p) {
            report.add(Rule::OperandRange, index, layers[index], g.q0, -1,
                       gateName(g.type) + " operand q" +
                           std::to_string(g.q0) + " outside register of " +
                           std::to_string(p));
            return false;
        }
        if (g.arity() == 2) {
            if (g.q1 < 0 || g.q1 >= p) {
                report.add(Rule::OperandRange, index, layers[index], g.q1,
                           -1,
                           gateName(g.type) + " operand q" +
                               std::to_string(g.q1) +
                               " outside register of " + std::to_string(p));
                return false;
            }
            if (g.q0 == g.q1) {
                report.add(Rule::OperandRange, index, layers[index], g.q0,
                           g.q1,
                           gateName(g.type) + " with both operands on q" +
                               std::to_string(g.q0));
                return false;
            }
        }
        return true;
    }

    /** QV008: NaN/Inf/denormal parameters. */
    void checkAngles(const Gate &g, int index)
    {
        for (int k = 0; k < circuit::gateParamCount(g.type); ++k) {
            const double v = g.params[static_cast<std::size_t>(k)];
            if (!std::isfinite(v))
                report.add(Rule::BadAngle, index, layers[index], g.q0,
                           g.q1,
                           gateName(g.type) + " parameter " +
                               std::to_string(k) + " is not finite");
            else if (v != 0.0 && std::abs(v) < DBL_MIN)
                report.add(Rule::BadAngle, index, layers[index], g.q0,
                           g.q1,
                           gateName(g.type) + " parameter " +
                               std::to_string(k) + " is denormal");
        }
    }

    /** QV007: unitary on an already-measured qubit. */
    void checkAfterMeasure(const Gate &g, int index)
    {
        if (g.type == GateType::MEASURE || g.type == GateType::BARRIER)
            return;
        for (int q : {g.q0, g.arity() == 2 ? g.q1 : -1})
            if (q >= 0 && measured[static_cast<std::size_t>(q)])
                report.add(Rule::GateAfterMeasure, index, layers[index], q,
                           -1,
                           gateName(g.type) + " on q" + std::to_string(q) +
                               " after its measurement");
    }

    int logicalOf(int phys, int index, const Gate &g)
    {
        const int l = phys_to_log[static_cast<std::size_t>(phys)];
        if (l < 0)
            report.add(Rule::UnmappedQubit, index, layers[index], phys, -1,
                       gateName(g.type) + " on physical q" +
                           std::to_string(phys) +
                           " which holds no logical qubit");
        return l;
    }
};

} // namespace

std::vector<int>
gateLayers(const Circuit &circuit)
{
    std::vector<int> frontier(
        static_cast<std::size_t>(circuit.numQubits()), 0);
    std::vector<int> layers;
    layers.reserve(circuit.gates().size());
    int barrier_level = 0;
    for (const Gate &g : circuit.gates()) {
        if (g.type == GateType::BARRIER) {
            int level = barrier_level;
            for (int f : frontier)
                level = std::max(level, f);
            barrier_level = level;
            std::fill(frontier.begin(), frontier.end(), level);
            layers.push_back(level);
            continue;
        }
        int level = barrier_level;
        level = std::max(level, frontier[static_cast<std::size_t>(
                                    std::clamp(g.q0, 0,
                                               circuit.numQubits() - 1))]);
        if (g.arity() == 2)
            level = std::max(
                level, frontier[static_cast<std::size_t>(std::clamp(
                           g.q1, 0, circuit.numQubits() - 1))]);
        layers.push_back(level);
        frontier[static_cast<std::size_t>(
            std::clamp(g.q0, 0, circuit.numQubits() - 1))] = level + 1;
        if (g.arity() == 2)
            frontier[static_cast<std::size_t>(
                std::clamp(g.q1, 0, circuit.numQubits() - 1))] = level + 1;
    }
    return layers;
}

ReplayResult
replayToLogical(const Circuit &physical,
                const std::vector<int> &initial_log_to_phys,
                bool lift_basis, diag::Report &report)
{
    const int num_physical = physical.numQubits();
    const int num_logical = static_cast<int>(initial_log_to_phys.size());

    std::vector<int> phys_to_log(static_cast<std::size_t>(num_physical),
                                 -1);
    for (int l = 0; l < num_logical; ++l) {
        const int p = initial_log_to_phys[static_cast<std::size_t>(l)];
        QAOA_CHECK(p >= 0 && p < num_physical,
                   "initial mapping places logical " << l
                       << " on physical " << p << " outside the register");
        QAOA_CHECK(phys_to_log[static_cast<std::size_t>(p)] < 0,
                   "initial mapping places two logical qubits on physical "
                       << p);
        phys_to_log[static_cast<std::size_t>(p)] = l;
    }

    const std::vector<int> layers = gateLayers(physical);
    Walker walker{physical, layers, report, std::move(phys_to_log),
                  std::vector<char>(static_cast<std::size_t>(num_physical),
                                    0)};

    ReplayResult out;
    out.logical = Circuit(num_logical);

    const std::vector<Gate> &gates = physical.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        const int index = static_cast<int>(i);
        if (g.type == GateType::BARRIER) {
            out.logical.add(Gate::barrier());
            continue;
        }
        if (!walker.operandsValid(g, index))
            continue;
        walker.checkAngles(g, index);
        walker.checkAfterMeasure(g, index);

        // Lift the contiguous basis patterns decomposeToBasis()/toQasm()
        // emit: CX·U1/RZ(target)·CX → CPHASE and CX·CX(reversed)·CX →
        // SWAP.  Both constituent triples act on exactly {q0, q1}, so the
        // checks above already cover them.
        GateType type = g.type;
        double angle = g.params[0];
        if (lift_basis && g.type == GateType::CNOT && i + 2 < gates.size()) {
            const Gate &g1 = gates[i + 1];
            const Gate &g2 = gates[i + 2];
            const bool closes = g2.type == GateType::CNOT &&
                                g2.q0 == g.q0 && g2.q1 == g.q1;
            if (closes && g1.type == GateType::CNOT && g1.q0 == g.q1 &&
                g1.q1 == g.q0) {
                type = GateType::SWAP;
                i += 2;
            } else if (closes &&
                       (g1.type == GateType::U1 ||
                        g1.type == GateType::RZ) &&
                       g1.q0 == g.q1) {
                walker.checkAngles(g1, static_cast<int>(i) + 1);
                type = GateType::CPHASE;
                angle = g1.params[0];
                i += 2;
            }
        }

        if (type == GateType::SWAP) {
            std::swap(walker.phys_to_log[static_cast<std::size_t>(g.q0)],
                      walker.phys_to_log[static_cast<std::size_t>(g.q1)]);
            continue;
        }
        if (type == GateType::MEASURE) {
            const int l = walker.logicalOf(g.q0, index, g);
            walker.measured[static_cast<std::size_t>(g.q0)] = 1;
            if (l >= 0)
                out.logical.add(Gate::measure(l, g.cbit));
            continue;
        }
        if (type == GateType::CPHASE || type == GateType::CZ) {
            const int la = walker.logicalOf(g.q0, index, g);
            const int lb = walker.logicalOf(g.q1, index, g);
            if (la < 0 || lb < 0)
                continue;
            const double term_angle =
                type == GateType::CZ ? std::numbers::pi : angle;
            out.interactions.push_back({la, lb, term_angle});
            out.interaction_gates.push_back(index);
            out.logical.add(type == GateType::CZ
                                ? Gate::cz(la, lb)
                                : Gate::cphase(la, lb, term_angle));
            continue;
        }
        if (g.arity() == 2) {
            const int la = walker.logicalOf(g.q0, index, g);
            const int lb = walker.logicalOf(g.q1, index, g);
            if (la < 0 || lb < 0)
                continue;
            Gate mapped = g;
            mapped.q0 = la;
            mapped.q1 = lb;
            out.logical.add(mapped);
            continue;
        }
        const int l = walker.logicalOf(g.q0, index, g);
        if (l < 0)
            continue;
        Gate mapped = g;
        mapped.q0 = l;
        out.logical.add(mapped);
    }

    out.final_log_to_phys.assign(static_cast<std::size_t>(num_logical),
                                 -1);
    for (int p = 0; p < num_physical; ++p) {
        const int l = walker.phys_to_log[static_cast<std::size_t>(p)];
        if (l >= 0)
            out.final_log_to_phys[static_cast<std::size_t>(l)] = p;
    }
    return out;
}

namespace {

/**
 * Matches observed against expected ZZ multisets pair by pair.
 *
 * Within one logical pair, angles are matched greedily under the
 * circular tolerance; an unmatched expected/observed angle couple on the
 * same pair reads as QV006 (wrong angle), a bare unmatched expected as
 * QV004 and a bare unmatched observed as QV005.
 */
void
matchInteractions(const ReplayResult &replay,
                  const std::vector<ZZTerm> &expected,
                  const std::vector<int> &layers, const VerifySpec &spec,
                  diag::Report &report)
{
    struct Observed
    {
        double angle;
        int gate_index;
        bool matched = false;
    };
    std::map<std::pair<int, int>, std::vector<Observed>> observed;
    for (std::size_t k = 0; k < replay.interactions.size(); ++k) {
        const ZZTerm &t = replay.interactions[k];
        if (spec.ignore_zero_interactions &&
            angleIsZero(t.angle, spec.angle_tolerance))
            continue;
        observed[{std::min(t.a, t.b), std::max(t.a, t.b)}].push_back(
            {t.angle, replay.interaction_gates[k]});
    }

    std::map<std::pair<int, int>, std::vector<double>> unmatched_expected;
    for (const ZZTerm &t : expected) {
        if (spec.ignore_zero_interactions &&
            angleIsZero(t.angle, spec.angle_tolerance))
            continue;
        const std::pair<int, int> key{std::min(t.a, t.b),
                                      std::max(t.a, t.b)};
        auto it = observed.find(key);
        bool matched = false;
        if (it != observed.end()) {
            for (Observed &o : it->second) {
                if (!o.matched &&
                    angleDistance(o.angle, t.angle) <=
                        spec.angle_tolerance) {
                    o.matched = true;
                    matched = true;
                    break;
                }
            }
        }
        if (!matched)
            unmatched_expected[key].push_back(t.angle);
    }

    // Pair leftovers on the same logical pair as wrong-angle findings;
    // the rest are genuinely missing/spurious interactions.
    for (auto &[key, angles] : unmatched_expected) {
        auto it = observed.find(key);
        for (double want : angles) {
            Observed *mismatch = nullptr;
            if (it != observed.end())
                for (Observed &o : it->second)
                    if (!o.matched) {
                        mismatch = &o;
                        break;
                    }
            if (mismatch != nullptr) {
                mismatch->matched = true;
                std::ostringstream os;
                os << "ZZ(" << key.first << "," << key.second
                   << ") has angle " << mismatch->angle << ", expected "
                   << want;
                report.add(Rule::WrongAngle, mismatch->gate_index,
                           layers[static_cast<std::size_t>(
                               mismatch->gate_index)],
                           key.first, key.second, os.str());
            } else {
                std::ostringstream os;
                os << "ZZ(" << key.first << "," << key.second
                   << ") with angle " << want
                   << " missing from the compiled circuit";
                report.add(Rule::MissingInteraction, -1, -1, key.first,
                           key.second, os.str());
            }
        }
    }
    for (const auto &[key, angle_list] : observed) {
        for (const Observed &o : angle_list) {
            if (o.matched)
                continue;
            std::ostringstream os;
            os << "ZZ(" << key.first << "," << key.second
               << ") with angle " << o.angle
               << " has no counterpart in the source problem";
            report.add(Rule::SpuriousInteraction, o.gate_index,
                       layers[static_cast<std::size_t>(o.gate_index)],
                       key.first, key.second, os.str());
        }
    }
}

/** QV001/QV002 raw pass over the physical gates. */
void
checkHardwareConformance(const Circuit &physical, const VerifySpec &spec,
                         const std::vector<int> &layers,
                         diag::Report &report)
{
    const hw::CouplingMap *map = spec.map;
    if (map != nullptr && physical.numQubits() > map->numQubits())
        report.add(Rule::OperandRange,
                   "circuit register of " +
                       std::to_string(physical.numQubits()) +
                       " qubits exceeds device " + map->name() + " (" +
                       std::to_string(map->numQubits()) + " qubits)");

    const std::vector<Gate> &gates = physical.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.type == GateType::BARRIER)
            continue;
        const bool q0_ok = g.q0 >= 0 && g.q0 < physical.numQubits();
        const bool q1_ok = g.arity() != 2 ||
                           (g.q1 >= 0 && g.q1 < physical.numQubits());
        if (!q0_ok || !q1_ok)
            continue; // replay reports QV012 with detail
        if (map != nullptr && g.arity() == 2 && g.q0 != g.q1 &&
            g.q0 < map->numQubits() && g.q1 < map->numQubits() &&
            !map->coupled(g.q0, g.q1))
            report.add(Rule::IllegalCoupling, static_cast<int>(i),
                       layers[i], g.q0, g.q1,
                       gateName(g.type) + " on (q" + std::to_string(g.q0) +
                           ",q" + std::to_string(g.q1) +
                           "): no coupling on " + map->name());
        if (spec.allowed_qubits != nullptr) {
            for (int q : {g.q0, g.arity() == 2 ? g.q1 : -1}) {
                if (q >= 0 &&
                    q < static_cast<int>(spec.allowed_qubits->size()) &&
                    !(*spec.allowed_qubits)[static_cast<std::size_t>(q)])
                    report.add(Rule::MaskedQubit, static_cast<int>(i),
                               layers[i], q, -1,
                               gateName(g.type) + " on masked/dead q" +
                                   std::to_string(q));
            }
        }
    }
}

} // namespace

diag::Report
verifyCircuit(const Circuit &physical, const VerifySpec &spec)
{
    diag::Report report;
    const std::vector<int> layers = gateLayers(physical);

    checkHardwareConformance(physical, spec, layers, report);

    ReplayResult replay = replayToLogical(
        physical, spec.initial_log_to_phys, spec.lift_basis, report);

    if (!spec.expected_final.empty()) {
        if (spec.expected_final.size() != replay.final_log_to_phys.size()) {
            report.add(Rule::MappingMismatch,
                       "reported final mapping covers " +
                           std::to_string(spec.expected_final.size()) +
                           " logical qubits, replay covers " +
                           std::to_string(replay.final_log_to_phys.size()));
        } else {
            for (std::size_t l = 0; l < spec.expected_final.size(); ++l) {
                if (spec.expected_final[l] != replay.final_log_to_phys[l])
                    report.add(
                        Rule::MappingMismatch, -1, -1,
                        spec.expected_final[l], replay.final_log_to_phys[l],
                        "logical " + std::to_string(l) +
                            ": compiler reports physical " +
                            std::to_string(spec.expected_final[l]) +
                            ", SWAP replay yields " +
                            std::to_string(replay.final_log_to_phys[l]));
            }
        }
    }

    if (spec.check_measure_convention) {
        for (const Gate &g : replay.logical.gates())
            if (g.type == GateType::MEASURE && g.q0 != g.cbit)
                report.add(Rule::MeasureMismatch, -1, -1, g.q0, -1,
                           "logical qubit " + std::to_string(g.q0) +
                               " measured into classical bit " +
                               std::to_string(g.cbit));
    }

    if (spec.expected_interactions != nullptr) {
        matchInteractions(replay, *spec.expected_interactions, layers,
                          spec, report);
        // Any leftover CNOT in the lifted logical view entangles qubits
        // outside the declared ZZ set — a miscompile even if the ZZ
        // multiset happens to balance.
        for (const Gate &g : replay.logical.gates())
            if (g.type == GateType::CNOT)
                report.add(Rule::SpuriousInteraction, -1, -1, g.q0, g.q1,
                           "entangling cnot on logical (q" +
                               std::to_string(g.q0) + ",q" +
                               std::to_string(g.q1) +
                               ") outside the ZZ interaction set");
    }

    if (spec.lints) {
        std::vector<char> touched(
            static_cast<std::size_t>(physical.numQubits()), 0);
        for (const Gate &g : physical.gates()) {
            if (g.type == GateType::BARRIER)
                continue;
            if (g.q0 >= 0 && g.q0 < physical.numQubits())
                touched[static_cast<std::size_t>(g.q0)] = 1;
            if (g.arity() == 2 && g.q1 >= 0 &&
                g.q1 < physical.numQubits())
                touched[static_cast<std::size_t>(g.q1)] = 1;
        }
        for (std::size_t l = 0; l < spec.initial_log_to_phys.size(); ++l) {
            const int p = spec.initial_log_to_phys[l];
            if (p >= 0 && p < physical.numQubits() &&
                !touched[static_cast<std::size_t>(p)])
                report.add(Rule::UnusedQubit, -1, -1, p, -1,
                           "logical qubit " + std::to_string(l) +
                               " allocated on physical q" +
                               std::to_string(p) +
                               " but never operated on");
        }
    }

    return report;
}

diag::Report
verifyRouted(const Circuit &logical, const Circuit &routed,
             const hw::CouplingMap &map,
             const std::vector<int> &initial_log_to_phys,
             const std::vector<int> &expected_final)
{
    VerifySpec spec;
    spec.map = &map;
    spec.initial_log_to_phys = initial_log_to_phys;
    spec.expected_final = expected_final;
    spec.lift_basis = false;
    spec.check_measure_convention = false;
    spec.lints = false;
    diag::Report report = verifyCircuit(routed, spec);

    // Gate preservation: the routed circuit, re-indexed to logical qubits
    // with SWAPs consumed, must hold exactly the source gate multiset.
    diag::Report replay_report;
    ReplayResult replay = replayToLogical(routed, initial_log_to_phys,
                                          /*lift_basis=*/false,
                                          replay_report);
    std::map<GateKey, int> balance;
    for (const Gate &g : logical.gates())
        if (g.type != GateType::BARRIER && g.type != GateType::SWAP)
            ++balance[gateKey(g)];
    for (const Gate &g : replay.logical.gates())
        if (g.type != GateType::BARRIER)
            --balance[gateKey(g)];
    for (const auto &[key, count] : balance) {
        if (count > 0)
            report.add(Rule::MissingInteraction,
                       std::to_string(count) + " instance(s) of '" +
                           describeKey(key) +
                           "' missing from the routed circuit");
        else if (count < 0)
            report.add(Rule::SpuriousInteraction,
                       std::to_string(-count) + " extra instance(s) of '" +
                           describeKey(key) + "' in the routed circuit");
    }
    return report;
}

void
checkReorder(const Circuit &reference, const Circuit &observed,
             diag::Report &report)
{
    std::vector<const Gate *> ref;
    for (const Gate &g : reference.gates())
        if (g.type != GateType::BARRIER)
            ref.push_back(&g);
    std::vector<const Gate *> obs;
    for (const Gate &g : observed.gates())
        if (g.type != GateType::BARRIER)
            obs.push_back(&g);

    // Stable assignment of observed gates to reference positions;
    // identical gates are interchangeable, so in-order pairing is exact.
    std::map<GateKey, std::vector<std::size_t>> positions;
    for (std::size_t r = 0; r < ref.size(); ++r)
        positions[gateKey(*ref[r])].push_back(r);
    std::map<GateKey, std::size_t> next;
    std::vector<long> perm(obs.size(), -1);
    for (std::size_t k = 0; k < obs.size(); ++k) {
        const GateKey key = gateKey(*obs[k]);
        auto it = positions.find(key);
        std::size_t &cursor = next[key];
        if (it == positions.end() || cursor >= it->second.size()) {
            report.add(Rule::SpuriousInteraction, static_cast<int>(k), -1,
                       obs[k]->q0, obs[k]->q1,
                       "'" + obs[k]->toString() +
                           "' has no counterpart in the reference order");
            continue;
        }
        perm[k] = static_cast<long>(it->second[cursor++]);
    }
    for (const auto &[key, pos] : positions) {
        const std::size_t used =
            next.count(key) != 0U ? next.at(key) : 0U;
        if (used < pos.size())
            report.add(Rule::MissingInteraction,
                       std::to_string(pos.size() - used) +
                           " instance(s) of '" + describeKey(key) +
                           "' absent from the observed order");
    }

    // Every exchanged pair must commute.
    for (std::size_t i = 0; i < obs.size(); ++i) {
        if (perm[i] < 0)
            continue;
        for (std::size_t j = i + 1; j < obs.size(); ++j) {
            if (perm[j] < 0 || perm[i] < perm[j])
                continue;
            if (!circuit::gatesCommute(*obs[i], *obs[j]))
                report.add(Rule::NonCommutingReorder, static_cast<int>(j),
                           -1, obs[j]->q0, obs[j]->q1,
                           "'" + obs[i]->toString() + "' and '" +
                               obs[j]->toString() +
                               "' were exchanged but do not commute");
        }
    }
}

} // namespace qaoa::verify
