#include "analysis/quality.hpp"

namespace qaoa::analysis {

QualityReport
analyzeCircuit(const circuit::Circuit &physical,
               const QualityOptions &options)
{
    QualityReport out;
    out.summary.depth = physical.depth();
    out.summary.gate_count = physical.gateCount();
    out.summary.two_qubit_gates = physical.twoQubitGateCount();
    out.summary.swap_count = physical.countType(circuit::GateType::SWAP);

    TimingOptions topts;
    topts.durations = options.lint.durations;
    topts.t2_ns = options.lint.t2_ns;
    topts.calibration = options.lint.calibration;
    out.timing = analyzeTiming(physical, topts);
    out.summary.execution_ns = out.timing.makespan_ns;
    out.summary.coherence = out.timing.coherence_factor;

    if (options.lint.calibration != nullptr) {
        out.esp = estimateEsp(physical, *options.lint.calibration);
        out.summary.esp = out.esp.total;
        out.summary.esp_one_qubit = out.esp.one_qubit;
        out.summary.esp_two_qubit = out.esp.two_qubit;
        out.summary.esp_readout = out.esp.readout;
    }

    out.lint = lintCircuit(physical, options.lint, out.timing);
    if (options.budget != nullptr)
        out.lint.merge(checkBudget(out.summary, *options.budget));
    return out;
}

} // namespace qaoa::analysis
