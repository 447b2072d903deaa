#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <time.h>

#include "common/rng.hpp"

namespace qaoa::bench {

double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double
cpuSeconds()
{
    timespec ts = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuTicks
readCpuTicks()
{
    // First line of /proc/stat: "cpu user nice system idle iowait irq
    // softirq steal ...".
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTicks ticks;
    for (int field = 0; field < 8 && in; ++field) {
        unsigned long long v = 0;
        in >> v;
        ticks.total += v;
        if (field == 7)
            ticks.steal = v;
    }
    return ticks;
}

graph::Graph
erdosRenyiExactEdges(int n, double p, std::uint64_t seed)
{
    std::vector<std::pair<int, int>> pairs;
    for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
            pairs.emplace_back(u, v);
    const auto edges =
        static_cast<std::size_t>(std::lround(p * static_cast<double>(
                                                     pairs.size())));
    Rng rng(seed);
    for (;;) {
        rng.shuffle(pairs);
        graph::Graph g(n);
        for (std::size_t i = 0; i < edges; ++i)
            g.addEdge(pairs[i].first, pairs[i].second);
        if (g.isConnected())
            return g;
    }
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 0.5);
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
referenceKernelMs()
{
    static std::vector<std::uint32_t> keys(1u << 14);
    static std::vector<std::complex<double>> amps(1u << 13);
    static volatile double sink = 0.0;
    const double t0 = cpuSeconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t &k : keys) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        k = static_cast<std::uint32_t>(x);
    }
    std::sort(keys.begin(), keys.end());
    std::map<std::uint32_t, std::uint32_t> tree;
    for (std::size_t i = 0; i < 2048; ++i)
        tree[keys[(i * 7919) % keys.size()]] = static_cast<std::uint32_t>(i);
    std::uint64_t found = 0;
    for (std::size_t i = 0; i < keys.size(); i += 3)
        found += tree.count(keys[i]);
    for (std::size_t i = 0; i < amps.size(); ++i)
        amps[i] = {1.0 / static_cast<double>(i + 1), 0.0};
    const std::complex<double> phase = std::polar(1.0, 0.37);
    for (int sweep = 0; sweep < 24; ++sweep)
        for (std::size_t i = 0; i < amps.size(); i += 2) {
            const std::complex<double> a = amps[i], b = amps[i + 1];
            amps[i] = 0.6 * a + 0.8 * phase * b;
            amps[i + 1] = 0.8 * a - 0.6 * phase * b;
        }
    sink = sink + amps[amps.size() / 2].real() + static_cast<double>(found);
    return (cpuSeconds() - t0) * 1e3;
}

double
selfPeakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
pidPeakRssMb(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

int
Tracer::begin(const std::string &name, int parent, std::uint64_t request)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, t, t, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int index)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = t;
}

int
Tracer::add(const std::string &name, double start, double end, int parent,
            std::uint64_t request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start; // Union of child intervals, clipped.
        for (const auto &[a, b] : kids) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(b, s.end));
        }
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::string
Tracer::treeJson() const
{
    struct Node
    {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    // Name path of each span ("root/child/..."), aggregated.
    std::vector<std::string> paths(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int parent = spans_[i].parent;
        paths[i] = parent >= 0
                       ? paths[static_cast<std::size_t>(parent)] + "/" +
                             spans_[i].name
                       : spans_[i].name;
    }
    const std::vector<double> self = selfTimes();
    std::map<std::string, Node> tree;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Node &node = tree[paths[i]];
        ++node.count;
        node.total_ms += (spans_[i].end - spans_[i].start) * 1e3;
        node.self_ms += self[i] * 1e3;
    }
    std::string out = "{";
    bool first = true;
    for (const auto &[path, node] : tree) {
        out += (first ? "" : ", ") + jsonString(path) +
               ": {\"count\": " + std::to_string(node.count) +
               ", \"total_ms\": " + jsonNumber(node.total_ms) +
               ", \"self_ms\": " + jsonNumber(node.self_ms) + "}";
        first = false;
    }
    return out + "}";
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::vector<double> self = selfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request
            << ", \"start_s\": " << jsonNumber(s.start)
            << ", \"end_s\": " << jsonNumber(s.end)
            << ", \"self_ms\": " << jsonNumber(self[i] * 1e3) << "}\n";
    }
    return static_cast<bool>(out);
}

double
spanTotalMs(const Tracer &tracer, const std::string &name)
{
    double total = 0.0;
    for (const Tracer::Span &s : tracer.spans())
        if (s.name == name)
            total += (s.end - s.start) * 1e3;
    return total;
}

std::vector<double>
spanDurationsMs(const Tracer &tracer, const std::string &name)
{
    std::vector<double> out;
    for (const Tracer::Span &s : tracer.spans())
        if (s.name == name)
            out.push_back((s.end - s.start) * 1e3);
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace qaoa::bench
