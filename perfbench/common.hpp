/**
 * @file
 * Shared pieces of the repo benchmark harness: the metric sink, order
 * statistics, the in-memory span tracer and the run record.
 *
 * The harness measures the repository from outside: it calls each
 * module's public functions and times those calls.  Spans exist only in
 * the traced run (--trace 1); the untraced run never touches a Tracer.
 */

#ifndef QAOA_PERFBENCH_COMMON_HPP
#define QAOA_PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace qaoa::bench {

/** Which share of a run a phase gets. */
enum class Role {
    Primary, ///< The workload's own load: full inputs, most of the time.
    Control, ///< A small fixed slice so every metric exists on every run.
};

/** What one phase is asked to do. */
struct PhasePlan
{
    Role role = Role::Control;
    double seconds = 1.0;     ///< Measurement budget over all rounds.
    int rounds = 9;           ///< Set-up/measure rounds per run.
    std::uint64_t seed = 1;   ///< Input seed (derived from --seed).
    int threads = 4;          ///< min(nproc, 4).
    std::string scratch;      ///< Scratch directory inside the checkout.
};

/**
 * How a metric follows the host's speed (see kReferenceNominalMs): a
 * time is divided by the host's slowdown, a rate multiplied by it,
 * anything else left alone.
 */
enum class Scale { None, Time, Rate };

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    Scale scale = Scale::None;
};

/** Everything a phase reports back to main(). */
struct PhaseResult
{
    std::map<std::string, Metric> metrics; ///< By metric name.
    std::uint64_t attempted = 0;           ///< Operations attempted.
    std::uint64_t failed = 0;              ///< Failed or mismatched.
    double peak_rss_mb = 0.0;              ///< 0 = use the harness's own.
    std::vector<std::string> failures;     ///< First few failure notes.
    std::map<std::string, std::string> record; ///< Run-record fields.

    void set(const std::string &name, double value, const std::string &unit,
             Scale scale = Scale::None)
    {
        metrics[name] = Metric{value, unit, scale};
    }

    /** Counts one failed operation and keeps its note (first 20). */
    void fail(const std::string &note)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(note);
    }
};

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/**
 * CPU seconds this process has run, over all its threads
 * (CLOCK_PROCESS_CPUTIME_ID).  The closed loops time their calls with it:
 * on a kernel with paravirtual steal accounting it leaves out the time
 * the hypervisor gives this VM's CPUs to other tenants, which moves
 * wall-clock readings by up to 2.5x between runs on a shared host.
 */
double cpuSeconds();

/** Host CPU ticks from /proc/stat: all states, and steal alone. */
struct CpuTicks
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};

/** The machine's CPU ticks so far (zeros when /proc/stat is absent). */
CpuTicks readCpuTicks();

/**
 * CPU milliseconds of one pass of the host-speed reference: a fixed
 * kernel of this harness, independent of the repository's code, that
 * mixes what the phases do (a branchy integer sort, node-based map
 * churn, and complex rotations streamed over a 128 KiB array).
 */
double referenceKernelMs();

/**
 * The reference's median time on the machine this benchmark was written
 * on (4-core x86-64 VM, calm stretch).  Timed metrics are reported at
 * this host speed: a run whose reference takes R ms reports a time T as
 * T * kReferenceNominalMs / R (see README.md, "Clocks, repeats and the host-speed reference").
 */
constexpr double kReferenceNominalMs = 4.5;

/**
 * A connected Erdos-Renyi graph with exactly round(p n(n-1)/2) edges
 * (G(n, M), as G(n, p) conditioned on its expected edge count), drawn
 * from @p seed.  Compile and simulation cost grow with the edge count,
 * and G(n, p)'s own spread of it (standard deviation ~4.6 at n = 11,
 * p = 0.5; ~6.8 at n = 20, p = 0.6) would make the cost of a seed's
 * instances depend on the seed.
 */
graph::Graph erdosRenyiExactEdges(int n, double p, std::uint64_t seed);

/** Linear-interpolated percentile, @p p in [0, 1]; 0 for no samples. */
double percentile(std::vector<double> xs, double p);

/** Median (percentile 0.5). */
double median(std::vector<double> xs);

/** Arithmetic mean; 0 for no samples. */
double mean(const std::vector<double> &xs);

/** Geometric mean of positive values; 0 for no samples. */
double geomean(const std::vector<double> &xs);

/** Peak resident set of this process in MiB (getrusage). */
double selfPeakRssMb();

/** Peak resident set of process @p pid in MiB (/proc VmHWM); 0 when
 *  unreadable. */
double pidPeakRssMb(long pid);

/** Minimal JSON string escaping. */
std::string jsonString(const std::string &s);

/** Number with all its digits (%.17g); non-finite values become null. */
std::string jsonNumber(double v);

/**
 * In-memory span recorder.  Each span has a name "<module>.<call>", a
 * start and end, its parent span and a request id shared by the spans of
 * one request (one compile, one optimisation, one served request).
 * Spans are only appended while the benchmark runs and are written out
 * when it ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< Seconds since the tracer's origin.
        double end = 0.0;
        int parent = -1;    ///< Index of the parent span; -1 = root.
        std::uint64_t request = 0;
    };

    Tracer();

    /** Opens a span; returns its index. */
    int begin(const std::string &name, int parent, std::uint64_t request);

    /** Closes span @p index now. */
    void end(int index);

    /** Records an already-measured span (times from now()). */
    int add(const std::string &name, double start, double end, int parent,
            std::uint64_t request);

    /** Seconds since the tracer's origin. */
    double now() const;

    /** The recorded spans; call once every recording thread is done. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus the part of that
     *  interval its children cover. */
    std::vector<double> selfTimes() const;

    /** Aggregated tree (name path -> count, total, self) as one JSON
     *  object. */
    std::string treeJson() const;

    /** Writes every span as JSON lines to @p path. */
    bool write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::mutex mutex_; // Serve spans arrive from several threads.
    std::vector<Span> spans_;
};

/** RAII span: opens in the constructor, closes in the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, int parent,
               std::uint64_t request)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, parent, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    Tracer *tracer_;
    int index_;
};

/** Sum of durations (ms) of spans named @p name. */
double spanTotalMs(const Tracer &tracer, const std::string &name);

/** Durations (ms) of every span named @p name. */
std::vector<double> spanDurationsMs(const Tracer &tracer,
                                    const std::string &name);

/** CPU model string from /proc/cpuinfo ("unknown" when absent). */
std::string cpuModel();

} // namespace qaoa::bench

#endif // QAOA_PERFBENCH_COMMON_HPP
