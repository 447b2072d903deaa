#include "common/failpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/text.hpp"

namespace qaoa::failpoint {

namespace {

/**
 * The failpoint catalogue: every injectable site in the codebase, one
 * entry per poll() call.  QE106 enforces the bijection — a poll of an
 * unlisted name, a listed name that is never polled, a duplicate list
 * entry, or two poll sites sharing a name all fail the invariant gate.
 */
const char *const kFailpointCatalogue[] = {
    "cache.evict",       // serve/cache.cpp: before a policy eviction unlinks
    "cache.persist",     // serve/cache.cpp: before an entry is written out
    "cache.reload",      // serve/cache.cpp: per entry during loadFromDir
    "cache.scrub",       // serve/cache.cpp: per entry during a scrub pass
    "checkpoint.load",   // opt/checkpoint.cpp: before reading a checkpoint
    "checkpoint.save",   // opt/checkpoint.cpp: before persisting a checkpoint
    "fs.dirsync",        // common/fs.cpp: before fsyncing the parent dir
    "fs.fsync",          // common/fs.cpp: before fsyncing the temp file
    "fs.open",           // common/fs.cpp: before creating the temp file
    "fs.read",           // common/fs.cpp: before reading a file
    "fs.rename",         // common/fs.cpp: before the publishing rename
    "fs.write",          // common/fs.cpp: mid-body, so aborts leave torn temps
    "serve.frame_read",  // serve/protocol.cpp: before reading a frame header
    "serve.frame_write", // serve/protocol.cpp: before writing a frame
};

/** One armed failpoint's action, trigger and bookkeeping. */
struct ArmedPoint {
    Action action = Action::None;
    int error_number = 0;
    std::uint64_t hit = 0;        ///< fire on exactly this evaluation (1-based)
    std::uint64_t from = 0;       ///< fire on every evaluation >= this
    double probability = -1.0;    ///< fire with this chance when >= 0
    std::uint64_t seed = 0;       ///< seed for the probability stream
    std::uint64_t hits = 0;       ///< evaluations seen so far
    std::uint64_t fired = 0;      ///< evaluations that injected a fault
    std::string spec;             ///< the entry text this was armed from
    std::unique_ptr<Rng> rng;     ///< lazily built for probability triggers
};

struct Registry {
    sync::Mutex mutex;
    std::map<std::string, ArmedPoint> points QAOA_GUARDED_BY(mutex);
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

[[nodiscard]] bool
isKnownName(const std::string &name)
{
    for (const char *known : kFailpointCatalogue)
        if (name == known)
            return true;
    return false;
}

/** Errno vocabulary accepted in specs and used for sidecar names. */
struct ErrnoEntry {
    const char *name;
    int value;
};

const ErrnoEntry kErrnoTable[] = {
    {"EACCES", EACCES}, {"EAGAIN", EAGAIN}, {"EBADF", EBADF},
    {"EEXIST", EEXIST}, {"EINTR", EINTR},   {"EIO", EIO},
    {"EMFILE", EMFILE}, {"ENOENT", ENOENT}, {"ENOSPC", ENOSPC},
    {"EPIPE", EPIPE},   {"EROFS", EROFS},
};

[[nodiscard]] Status
badSpec(const std::string &entry, const std::string &why)
{
    return {ErrorCode::InvalidArgument,
            "failpoint spec '" + entry + "': " + why};
}

/** Parses one 'name=action[@triggers]' entry into (name, point). */
[[nodiscard]] Status
parseEntry(const std::string &entry, std::uint64_t default_seed,
           std::string &name, ArmedPoint &point)
{
    const auto eq = entry.find('=');
    if (eq == std::string::npos)
        return badSpec(entry, "expected name=action");
    name = text::trim(entry.substr(0, eq));
    if (!isKnownName(name)) {
        std::string known;
        for (const char *n : kFailpointCatalogue) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        return badSpec(entry,
                       "unknown failpoint '" + name + "' (known: " + known +
                           ")");
    }

    std::string action_text = text::trim(entry.substr(eq + 1));
    std::string trigger_text;
    if (const auto at = action_text.find('@'); at != std::string::npos) {
        trigger_text = action_text.substr(at + 1);
        action_text = text::trim(action_text.substr(0, at));
    }

    point = ArmedPoint{};
    point.seed = default_seed;
    point.spec = entry;
    if (action_text == "abort") {
        point.action = Action::Abort;
    } else if (action_text == "short") {
        point.action = Action::ShortWrite;
        point.error_number = EIO;
    } else if (action_text == "off") {
        point.action = Action::None;
    } else if (action_text.rfind("errno:", 0) == 0) {
        point.action = Action::ReturnErrno;
        const std::string token = text::trim(action_text.substr(6));
        point.error_number = errnoFromToken(token);
        if (point.error_number == 0)
            return badSpec(entry, "unknown errno token '" + token + "'");
    } else {
        return badSpec(entry, "unknown action '" + action_text +
                                  "' (want errno:E, short, abort, off)");
    }

    for (std::string trigger : text::split(trigger_text, ',')) {
        trigger = text::trim(trigger);
        if (trigger.empty())
            continue;
        const auto teq = trigger.find('=');
        if (teq == std::string::npos)
            return badSpec(entry, "malformed trigger '" + trigger + "'");
        const std::string key = trigger.substr(0, teq);
        const std::string value = trigger.substr(teq + 1);
        if (key == "hit" || key == "from") {
            const StatusOr<std::uint64_t> n = text::parseUint64(value);
            if (!n.ok() || n.value() == 0)
                return badSpec(entry, "trigger '" + key +
                                          "' wants a positive integer");
            (key == "hit" ? point.hit : point.from) = n.value();
        } else if (key == "p") {
            const StatusOr<double> p = text::parseDouble(value);
            if (!p.ok() || p.value() < 0.0 || p.value() > 1.0)
                return badSpec(entry, "trigger 'p' wants a number in [0,1]");
            point.probability = p.value();
        } else if (key == "seed") {
            const StatusOr<std::uint64_t> seed = text::parseUint64(value);
            if (!seed.ok())
                return badSpec(entry, "trigger 'seed' wants an integer");
            point.seed = seed.value();
        } else {
            return badSpec(entry, "unknown trigger '" + key +
                                      "' (want hit=, from=, p=, seed=)");
        }
    }
    return {};
}

} // namespace

namespace detail {

std::atomic<bool> g_armed{false};

Fire
evaluate(const char *name)
{
    Registry &reg = registry();
    sync::MutexLock lock(reg.mutex);
    const auto it = reg.points.find(name);
    if (it == reg.points.end())
        return {};
    ArmedPoint &point = it->second;
    ++point.hits;
    bool fire = true;
    if (point.hit != 0)
        fire = point.hits == point.hit;
    else if (point.from != 0)
        fire = point.hits >= point.from;
    if (fire && point.probability >= 0.0) {
        if (!point.rng)
            point.rng = std::make_unique<Rng>(point.seed);
        fire = point.rng->uniformReal(0.0, 1.0) < point.probability;
    }
    if (!fire)
        return {};
    ++point.fired;
    if (point.action == Action::Abort) {
        // Power-cut simulation: no stream flushing, no atexit handlers,
        // no destructors — the harness asserts recovery from exactly
        // the on-disk state this instant leaves behind.
        std::_Exit(kAbortExitCode);
    }
    return {point.action, point.error_number};
}

} // namespace detail

Status
armFromSpec(const std::string &spec, std::uint64_t default_seed)
{
    // Parse the whole spec before touching the registry, so a bad entry
    // cannot leave a half-armed state.
    std::vector<std::pair<std::string, ArmedPoint>> parsed;
    for (std::string entry : text::split(spec, ';')) {
        entry = text::trim(entry);
        if (entry.empty())
            continue;
        std::string name;
        ArmedPoint point;
        if (Status st = parseEntry(entry, default_seed, name, point);
            !st.ok())
            return st;
        parsed.emplace_back(name, std::move(point));
    }

    Registry &reg = registry();
    sync::MutexLock lock(reg.mutex);
    for (auto &[name, point] : parsed) {
        if (point.action == Action::None)
            reg.points.erase(name);
        else
            reg.points[name] = std::move(point);
    }
    detail::g_armed.store(!reg.points.empty(), std::memory_order_relaxed);
    return {};
}

Status
armFromEnv()
{
    // NOLINTBEGIN(concurrency-mt-unsafe) — read once during startup,
    // before any worker thread exists.
    const char *spec = std::getenv("QAOA_FAILPOINTS");
    const char *seed_text = std::getenv("QAOA_FAILPOINT_SEED");
    // NOLINTEND(concurrency-mt-unsafe)
    if (spec == nullptr || *spec == '\0')
        return {};
    if (seed_text == nullptr || *seed_text == '\0')
        return armFromSpec(spec, 0);
    const StatusOr<std::uint64_t> seed = text::parseUint64(seed_text);
    if (!seed.ok())
        return {ErrorCode::InvalidArgument,
                std::string("QAOA_FAILPOINT_SEED: not an integer: ") +
                    seed_text};
    return armFromSpec(spec, seed.value());
}

void
disarmAll()
{
    Registry &reg = registry();
    sync::MutexLock lock(reg.mutex);
    reg.points.clear();
    detail::g_armed.store(false, std::memory_order_relaxed);
}

std::vector<std::string>
armedList()
{
    Registry &reg = registry();
    sync::MutexLock lock(reg.mutex);
    std::vector<std::string> out;
    out.reserve(reg.points.size());
    for (const auto &[name, point] : reg.points) {
        std::ostringstream line;
        line << point.spec << " hits=" << point.hits
             << " fired=" << point.fired;
        out.push_back(line.str());
    }
    return out;
}

std::vector<std::string>
catalogue()
{
    std::vector<std::string> out(std::begin(kFailpointCatalogue),
                                 std::end(kFailpointCatalogue));
    std::sort(out.begin(), out.end());
    return out;
}

int
errnoFromToken(const std::string &token)
{
    std::string upper = token;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    for (const ErrnoEntry &e : kErrnoTable)
        if (upper == e.name)
            return e.value;
    const StatusOr<int> numeric = text::parseInt(token, 1, 4095);
    return numeric.ok() ? numeric.value() : 0;
}

std::string
errnoShortName(int error_number)
{
    for (const ErrnoEntry &e : kErrnoTable) {
        if (error_number == e.value) {
            std::string lower = e.name;
            std::transform(lower.begin(), lower.end(), lower.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            return lower;
        }
    }
    return "e" + std::to_string(error_number);
}

} // namespace qaoa::failpoint
