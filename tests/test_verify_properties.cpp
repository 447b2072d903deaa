/** @file
 * Property test: every compile method on every built-in device produces
 * a verifier-spotless circuit — the in-process equivalent of the CLI's
 * --verify-strict bar.  This replaces the sampled coupling/count
 * spot-checks the compiler tests used to rely on: the verifier proves
 * coupling conformance, mapping replay and interaction equivalence in
 * one pass, on healthy and fault-degraded devices alike.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ising.hpp"
#include "qaoa/problem.hpp"
#include "verify/verifier.hpp"

namespace qaoa::core {
namespace {

const std::vector<Method> kMethods{Method::Naive, Method::GreedyV,
                                   Method::Qaim,  Method::Ip,
                                   Method::Ic,    Method::Vic};

std::vector<hw::CouplingMap>
builtinDevices()
{
    std::vector<hw::CouplingMap> devices;
    devices.push_back(hw::ibmqTokyo20());
    devices.push_back(hw::ibmqMelbourne15());
    devices.push_back(hw::ibmqPoughkeepsie20());
    devices.push_back(hw::heavyHexFalcon27());
    devices.push_back(hw::gridDevice(4, 4));
    devices.push_back(hw::linearDevice(14));
    devices.push_back(hw::ringDevice(14));
    return devices;
}

/** The ZZ multiset compileQaoaMaxcut must realize (angle = gamma * w). */
std::vector<verify::ZZTerm>
maxcutTerms(const graph::Graph &problem, const std::vector<double> &gammas,
            double scale)
{
    std::vector<verify::ZZTerm> terms;
    for (double gamma : gammas)
        for (const ZZOp &op : costOperations(problem))
            terms.push_back({op.a, op.b, scale * gamma * op.weight});
    return terms;
}

/** Runs the verifier at the --verify-strict bar and reports findings. */
void
expectSpotless(const transpiler::CompileResult &r,
               const hw::CouplingMap &map,
               const std::vector<char> *allowed,
               const std::vector<verify::ZZTerm> &terms,
               const std::string &context)
{
    ASSERT_TRUE(r.ok()) << context << ": " << r.failure_reason;
    verify::VerifySpec spec;
    spec.map = &map;
    spec.allowed_qubits = allowed;
    spec.initial_log_to_phys = r.initial_layout.logToPhys();
    spec.expected_final = r.final_layout.logToPhys();
    spec.expected_interactions = &terms;
    spec.lift_basis = false;
    diag::Report report = verify::verifyCircuit(r.physical, spec);
    EXPECT_TRUE(report.spotless())
        << context << ": " << report.summary();
}

TEST(VerifyProperties, AllMethodsOnAllBuiltinDevicesAreSpotless)
{
    Rng inst_rng(91);
    for (const hw::CouplingMap &map : builtinDevices()) {
        const int n = std::min(10, map.numQubits());
        graph::Graph problem = graph::erdosRenyi(n, 0.45, inst_rng);
        if (problem.numEdges() == 0)
            problem.addEdge(0, 1);
        hw::CalibrationData calib(map);

        QaoaCompileOptions opts;
        opts.gammas = {0.7, 0.4};
        opts.betas = {0.35, 0.2};
        opts.seed = 123;
        opts.calibration = &calib;
        const std::vector<verify::ZZTerm> terms =
            maxcutTerms(problem, opts.gammas, 1.0);

        for (Method method : kMethods) {
            opts.method = method;
            transpiler::CompileResult r =
                compileQaoaMaxcut(problem, map, opts);
            expectSpotless(r, map, nullptr, terms,
                           map.name() + "/" + methodName(method));
        }
    }
}

TEST(VerifyProperties, FaultMaskedDeviceCompilesAreSpotless)
{
    // Degraded Tokyo: two dead qubits and a few lost couplings.  The
    // compile must stay inside the usable region and verify against the
    // *degraded* map.
    hw::CouplingMap base = hw::ibmqTokyo20();
    hw::CalibrationData base_calib(base);
    hw::FaultSpec faults;
    faults.dead_qubits = {3, 17};
    faults.disabled_edges = {{0, 1}, {6, 11}};
    hw::FaultInjector injector(base, faults, &base_calib);

    Rng inst_rng(7);
    graph::Graph problem = graph::erdosRenyi(8, 0.5, inst_rng);

    QaoaCompileOptions opts;
    opts.gammas = {0.6};
    opts.betas = {0.3};
    opts.seed = 5;
    opts.calibration = &injector.calibration();
    opts.allowed_qubits = &injector.usable();
    opts.device_degraded = true;
    const std::vector<verify::ZZTerm> terms =
        maxcutTerms(problem, opts.gammas, 1.0);

    for (Method method : kMethods) {
        opts.method = method;
        transpiler::CompileResult r =
            compileQaoaMaxcut(problem, injector.map(), opts);
        ASSERT_TRUE(r.ok()) << methodName(method);
        EXPECT_EQ(r.status, transpiler::CompileStatus::Degraded);
        expectSpotless(r, injector.map(), &injector.usable(), terms,
                       "faulty-tokyo/" + methodName(method));
    }
}

TEST(VerifyProperties, PeepholeCompilesStayClean)
{
    // The peephole optimizer must not break interaction equivalence.
    Rng inst_rng(13);
    graph::Graph problem = graph::erdosRenyi(9, 0.4, inst_rng);
    hw::CouplingMap map = hw::ibmqMelbourne15();
    hw::CalibrationData calib(map);

    QaoaCompileOptions opts;
    opts.gammas = {0.7};
    opts.betas = {0.35};
    opts.peephole = true;
    opts.calibration = &calib;
    std::vector<verify::ZZTerm> terms =
        maxcutTerms(problem, opts.gammas, 1.0);

    for (Method method : kMethods) {
        opts.method = method;
        transpiler::CompileResult r = compileQaoaMaxcut(problem, map, opts);
        ASSERT_TRUE(r.ok()) << methodName(method);
        verify::VerifySpec spec;
        spec.map = &map;
        spec.initial_log_to_phys = r.initial_layout.logToPhys();
        spec.expected_final = r.final_layout.logToPhys();
        spec.expected_interactions = &terms;
        spec.lift_basis = false;
        spec.ignore_zero_interactions = true;
        EXPECT_TRUE(verify::verifyCircuit(r.physical, spec).clean())
            << methodName(method);
    }
}

TEST(VerifyProperties, IsingCompilesAreSpotless)
{
    // Quadratic Ising terms carry angle 2*gamma*J.
    IsingModel model(6);
    model.addQuadratic(0, 1, 0.8);
    model.addQuadratic(1, 2, -0.5);
    model.addQuadratic(2, 3, 1.1);
    model.addQuadratic(3, 4, 0.9);
    model.addQuadratic(4, 5, -1.3);
    model.addQuadratic(0, 5, 0.4);
    model.addLinear(2, 0.7);

    hw::CouplingMap map = hw::ibmqMelbourne15();
    hw::CalibrationData calib(map);
    QaoaCompileOptions opts;
    opts.gammas = {0.45};
    opts.betas = {0.25};
    opts.calibration = &calib;

    std::vector<verify::ZZTerm> terms;
    for (const ZZOp &op : model.quadraticOps())
        terms.push_back({op.a, op.b, 2.0 * opts.gammas[0] * op.weight});

    for (Method method : kMethods) {
        opts.method = method;
        transpiler::CompileResult r = compileQaoaIsing(model, map, opts);
        expectSpotless(r, map, nullptr, terms,
                       "ising/" + methodName(method));
    }
}

} // namespace
} // namespace qaoa::core
