#include "serve/cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "circuit/qbin.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/fs.hpp"
#include "common/kv.hpp"
#include "common/text.hpp"

namespace qaoa::serve {

namespace {

constexpr const char *kCacheFormat = "qaoa-serve-cache-v2";
constexpr const char *kLegacyCacheFormat = "qaoa-serve-cache-v1";
constexpr const char *kEntrySuffix = ".cce";

/** True when @p body is a readable entry in the retired v1 flat-JSON
 *  text format (as opposed to garbage, which quarantines). */
bool
isLegacyTextEntry(const std::string &body)
{
    try {
        return kv::parse(body).get("format", "") == kLegacyCacheFormat;
    } catch (const std::exception &) {
        return false;
    }
}

void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0775) == 0 || errno == EEXIST)
        return;
    throw std::runtime_error(
        fs::errnoDetail("cache: cannot create directory " + dir));
}

/** LRU: a recency list front=oldest; hits splice to the back. */
class LruPolicy final : public ReplacementPolicy
{
  public:
    void
    onInsert(const std::string &key) override
    {
        order_.push_back(key);
        where_[key] = std::prev(order_.end());
    }

    void
    onHit(const std::string &key) override
    {
        const auto it = where_.find(key);
        QAOA_ASSERT(it != where_.end(), "lru: hit on untracked key");
        order_.splice(order_.end(), order_, it->second);
    }

    void
    onErase(const std::string &key) override
    {
        const auto it = where_.find(key);
        QAOA_ASSERT(it != where_.end(), "lru: erase of untracked key");
        order_.erase(it->second);
        where_.erase(it);
    }

    std::string
    victim() const override
    {
        QAOA_ASSERT(!order_.empty(), "lru: victim() on empty cache");
        return order_.front();
    }

    std::string
    name() const override
    {
        return "lru";
    }

  private:
    std::list<std::string> order_;
    std::unordered_map<std::string, std::list<std::string>::iterator>
        where_;
};

/** FIFO: insertion order only; hits are ignored (scan resistance). */
class FifoPolicy final : public ReplacementPolicy
{
  public:
    void
    onInsert(const std::string &key) override
    {
        order_.push_back(key);
        where_[key] = std::prev(order_.end());
    }

    void
    onHit(const std::string &) override
    {
    }

    void
    onErase(const std::string &key) override
    {
        const auto it = where_.find(key);
        QAOA_ASSERT(it != where_.end(), "fifo: erase of untracked key");
        order_.erase(it->second);
        where_.erase(it);
    }

    std::string
    victim() const override
    {
        QAOA_ASSERT(!order_.empty(), "fifo: victim() on empty cache");
        return order_.front();
    }

    std::string
    name() const override
    {
        return "fifo";
    }

  private:
    std::list<std::string> order_;
    std::unordered_map<std::string, std::list<std::string>::iterator>
        where_;
};

} // namespace

std::uint64_t
CacheEntry::bytes() const
{
    // Each std::string costs its character storage plus the string
    // object itself (pointer/size/capacity header) — count both for
    // the top-level fields and the diagnostics alike, so the byte cap
    // doesn't systematically undercount string-heavy entries.
    const auto strBytes = [](const std::string &s) {
        return static_cast<std::uint64_t>(s.size() + sizeof(std::string));
    };
    std::uint64_t total = sizeof(CacheEntry);
    total += strBytes(key) + strBytes(canonical) + strBytes(status) +
             strBytes(qbin);
    for (const std::string &d : diagnostics)
        total += strBytes(d);
    return total;
}

std::string
serializeCacheEntry(const CacheEntry &entry)
{
    circuit::qbin::Artifact artifact;
    artifact.circuit = entry.qbin;
    kv::Record &rec = artifact.meta;
    rec.set("format", kCacheFormat);
    rec.set("key", entry.key);
    rec.set("canonical", entry.canonical);
    rec.set("status", entry.status);
    rec.set("depth", std::to_string(entry.depth));
    rec.set("gate_count", std::to_string(entry.gate_count));
    rec.set("cx_count", std::to_string(entry.cx_count));
    rec.set("swap_count", std::to_string(entry.swap_count));
    rec.set("compile_ms", text::formatHexDouble(entry.compile_ms));
    if (!entry.diagnostics.empty())
        rec.set("diagnostics", text::join(entry.diagnostics, '\n'));
    return circuit::qbin::encodeArtifact(artifact);
}

CacheEntry
parseCacheEntry(const std::string &bytes)
{
    // decodeArtifact() fully validates the embedded circuit document,
    // so an entry that parses here can never serve a torn circuit.
    const circuit::qbin::Artifact artifact =
        circuit::qbin::decodeArtifact(bytes);
    const kv::Record &rec = artifact.meta;
    QAOA_CHECK(rec.get("format", "") == kCacheFormat,
               "cache entry: unsupported format: "
                   << rec.get("format", "<missing>"));
    CacheEntry entry;
    entry.key = rec.get("key");
    entry.canonical = rec.get("canonical");
    entry.status = rec.get("status");
    QAOA_CHECK(entry.status == "ok" || entry.status == "degraded",
               "cache entry: unexpected status: " << entry.status);
    entry.qbin = artifact.circuit;
    QAOA_CHECK(!entry.key.empty() && !entry.canonical.empty(),
               "cache entry: missing key/canonical");
    const auto integer = [&](const char *key) {
        return text::orThrow(text::parseInt(rec.get(key)), "cache entry",
                             key);
    };
    entry.depth = integer("depth");
    entry.gate_count = integer("gate_count");
    entry.cx_count = integer("cx_count");
    entry.swap_count = integer("swap_count");
    entry.compile_ms =
        text::orThrow(text::parseHexDouble(rec.get("compile_ms")),
                      "cache entry", "compile_ms");
    if (rec.has("diagnostics"))
        entry.diagnostics = text::split(rec.get("diagnostics"), '\n');
    return entry;
}

std::unique_ptr<ReplacementPolicy>
makeLruPolicy()
{
    return std::make_unique<LruPolicy>();
}

std::unique_ptr<ReplacementPolicy>
makeFifoPolicy()
{
    return std::make_unique<FifoPolicy>();
}

std::unique_ptr<ReplacementPolicy>
makePolicyByName(const std::string &name)
{
    if (name == "lru")
        return makeLruPolicy();
    if (name == "fifo")
        return makeFifoPolicy();
    throw std::runtime_error("cache: unknown eviction policy: " + name +
                             " (want lru or fifo)");
}

double
CacheStats::hitRate() const
{
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

CompileCache::CompileCache(CacheLimits limits,
                           std::unique_ptr<ReplacementPolicy> policy,
                           std::string dir)
    : limits_(limits),
      dir_(std::move(dir)),
      policy_(policy ? std::move(policy) : makeLruPolicy())
{
    QAOA_CHECK(limits_.max_entries >= 1,
               "cache: max_entries must be >= 1");
}

std::optional<CacheEntry>
CompileCache::get(const std::string &key, const std::string &canonical)
{
    sync::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.canonical != canonical) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    policy_->onHit(key);
    return it->second;
}

void
CompileCache::put(const CacheEntry &entry)
{
    QAOA_CHECK(!entry.key.empty(), "cache: entry without a key");
    sync::MutexLock lock(mutex_);
    if (entry.bytes() > limits_.max_bytes)
        return; // Would evict the whole cache for one entry.
    const auto it = entries_.find(entry.key);
    if (it != entries_.end()) {
        bytes_ -= it->second.bytes();
        it->second = entry;
        bytes_ += entry.bytes();
        policy_->onHit(entry.key);
    } else {
        entries_.emplace(entry.key, entry);
        bytes_ += entry.bytes();
        policy_->onInsert(entry.key);
        ++stats_.insertions;
    }
    // Re-enforce the caps on refreshes too: replacing an entry with a
    // larger one must not leave bytes_ above the limit.  The entry
    // itself fits (checked above) and sits at the back of an LRU, but
    // a FIFO may legitimately pick it as victim — persist only if it
    // survived, so disk never holds an entry memory already dropped.
    evictLocked();
    if (entries_.count(entry.key) != 0)
        persistLocked(entry);
}

void
CompileCache::eraseEntryLocked(const std::string &key, bool unlink_disk)
{
    const auto it = entries_.find(key);
    QAOA_ASSERT(it != entries_.end(),
                "cache: erase of untracked key");
    bytes_ -= it->second.bytes();
    entries_.erase(it);
    policy_->onErase(key);
    if (unlink_disk && !dir_.empty()) {
        if (const auto fp = failpoint::poll("cache.evict"); fp.fires()) {
            disk_error_ =
                "cache: evict fault injected for " + entryPath(key);
            return;
        }
        // Best-effort eviction unlink; a leftover file is re-read
        // (and re-validated) on the next load. qe-allow(QE104)
        (void)std::remove(entryPath(key).c_str());
    }
}

void
CompileCache::evictLocked()
{
    while (entries_.size() > limits_.max_entries ||
           bytes_ > limits_.max_bytes) {
        const std::string key = policy_->victim();
        eraseEntryLocked(key, /*unlink_disk=*/true);
        ++stats_.evictions;
    }
}

void
CompileCache::emergencyEvictLocked(const std::string &protect)
{
    // ENOSPC recovery: shed about a quarter of the resident entries
    // (at least one), unlinking their disk files so space is actually
    // freed, then the caller retries the persist.  The entry being
    // persisted is never its own victim.
    std::size_t budget =
        std::max<std::size_t>(1, entries_.size() / 4);
    while (budget > 0 && entries_.size() > 1) {
        const std::string key = policy_->victim();
        if (key == protect)
            break; // The policy would evict the newcomer itself; stop.
        eraseEntryLocked(key, /*unlink_disk=*/true);
        ++stats_.evictions;
        ++stats_.emergency_evictions;
        --budget;
    }
}

void
CompileCache::persistLocked(const CacheEntry &entry)
{
    if (dir_.empty())
        return;
    try {
        ensureDir(dir_);
        if (const auto fp = failpoint::poll("cache.persist"); fp.fires()) {
            disk_error_ =
                "cache: persist fault injected for " + entry.key;
            return;
        }
        const std::string body = serializeCacheEntry(entry);
        int err = 0;
        Status st = fs::tryAtomicWriteFile(entryPath(entry.key), body, &err);
        if (!st.ok() && err == ENOSPC) {
            // Full disk: make room by evicting (files included), then
            // retry once.  Failing that we degrade to memory-only.
            emergencyEvictLocked(entry.key);
            st = fs::tryAtomicWriteFile(entryPath(entry.key), body, &err);
        }
        disk_error_ = st.ok() ? "" : st.message();
    } catch (const std::exception &e) {
        // Keep serving from memory; surface the error via stats.
        disk_error_ = e.what();
    }
}

void
CompileCache::loadFromDir()
{
    if (dir_.empty())
        return;
    struct Candidate
    {
        std::string name;
        long mtime = 0;
    };
    std::vector<Candidate> found;
    {
        DIR *dir = ::opendir(dir_.c_str());
        if (dir == nullptr) {
            if (errno == ENOENT)
                return; // Nothing persisted yet.
            throw std::runtime_error(
                fs::errnoDetail("cache: cannot open directory " + dir_));
        }
        // The DIR* stream is created, walked and closed by this one
        // thread; readdir's thread-unsafety is per-stream, so sharing
        // never happens here.
        while (const dirent *ent = ::readdir(dir)) { // NOLINT(concurrency-mt-unsafe)
            const std::string name = ent->d_name;
            if (name.size() <= std::strlen(kEntrySuffix) ||
                name.rfind(kEntrySuffix) !=
                    name.size() - std::strlen(kEntrySuffix))
                continue;
            struct stat st = {};
            if (::stat((dir_ + "/" + name).c_str(), &st) != 0)
                continue;
            found.push_back({name, static_cast<long>(st.st_mtime)});
        }
        ::closedir(dir);
    }
    // Oldest first: the policy then sees the same order the entries
    // were originally inserted in, so post-restart eviction behaves
    // like the pre-crash cache's.
    std::sort(found.begin(), found.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.name < b.name;
              });

    // Best-effort GC of temp droppings; failure only leaves garbage
    // behind, never affects correctness. qe-allow(QE104)
    (void)fs::removeStaleTempFiles(dir_);

    sync::MutexLock lock(mutex_);
    for (const Candidate &c : found) {
        const std::string path = dir_ + "/" + c.name;
        std::string body;
        int read_errno = 0;
        Status read;
        if (const auto fp = failpoint::poll("cache.reload"); fp.fires()) {
            read_errno = fp.error_number != 0 ? fp.error_number : EIO;
            errno = read_errno;
            read = Status(ErrorCode::IoError,
                          fs::errnoDetail("cache: reload fault injected "
                                          "reading " +
                                          path));
        } else {
            read = fs::tryReadFile(path, body, &read_errno);
        }
        if (read.code() == ErrorCode::NotFound)
            continue; // Vanished between listing and read.
        if (!read.ok()) {
            // Transient I/O fault (EIO and friends), NOT a missing
            // file: the bytes may be fine once the medium recovers, so
            // set the file aside with the errno in the sidecar name
            // and keep starting up instead of aborting.
            // qe-allow(QE104): best-effort quarantine rename.
            (void)fs::renameFile(
                path, path + ".corrupt." +
                          failpoint::errnoShortName(read_errno));
            ++stats_.read_errors;
            ++stats_.quarantined;
            disk_error_ = read.message();
            continue;
        }
        CacheEntry entry;
        bool ok = false;
        try {
            entry = parseCacheEntry(body);
            // The filename must agree with the content address.
            ok = c.name == entry.key + kEntrySuffix;
        } catch (const std::exception &) {
            ok = false;
        }
        if (!ok) {
            if (isLegacyTextEntry(body)) {
                // A healthy entry from the retired v1 text format: its
                // 12-digit decimal angles cannot honor the bit-exact
                // contract, so retire it (recompute on next request)
                // rather than trust it or call it corrupt.
                // qe-allow(QE104): best-effort quarantine rename.
                (void)fs::renameFile(path, path + ".legacy");
                ++stats_.retired;
            } else {
                // qe-allow(QE104): best-effort quarantine rename.
                (void)fs::renameFile(path, path + ".corrupt");
                ++stats_.quarantined;
            }
            continue;
        }
        if (entries_.count(entry.key) != 0 ||
            entry.bytes() > limits_.max_bytes)
            continue;
        entries_.emplace(entry.key, entry);
        bytes_ += entry.bytes();
        policy_->onInsert(entry.key);
        ++stats_.loaded;
        evictLocked();
    }
}

ScrubReport
CompileCache::scrub()
{
    sync::MutexLock lock(mutex_);
    ScrubReport report;
    ++stats_.scrub_runs;
    std::vector<std::string> drop;
    for (const auto &[key, entry] : entries_) {
        ++report.checked;
        // 1. The in-memory artifact must still decode; anything else
        //    would eventually be served.  Drop it — the next request
        //    recompiles — and discard the matching disk file, which
        //    was serialized from the same bad bytes.
        if (!circuit::qbin::tryDecodeCircuit(entry.qbin).ok()) {
            drop.push_back(key);
            continue;
        }
        if (dir_.empty())
            continue;
        // 2. The disk copy must exist and match memory byte-for-byte.
        const std::string path = entryPath(key);
        std::string body;
        int read_errno = 0;
        Status read;
        if (const auto fp = failpoint::poll("cache.scrub"); fp.fires()) {
            read_errno = fp.error_number != 0 ? fp.error_number : EIO;
            errno = read_errno;
            read = Status(ErrorCode::IoError,
                          fs::errnoDetail("cache: scrub fault injected "
                                          "reading " +
                                          path));
        } else {
            read = fs::tryReadFile(path, body, &read_errno);
        }
        const std::string want = serializeCacheEntry(entry);
        if (read.ok() && body == want)
            continue;
        if (!read.ok() && read.code() != ErrorCode::NotFound) {
            // qe-allow(QE104): best-effort quarantine rename.
            (void)fs::renameFile(
                path, path + ".corrupt." +
                          failpoint::errnoShortName(read_errno));
            ++stats_.read_errors;
            ++stats_.quarantined;
            ++report.quarantined;
        } else if (read.ok()) {
            // Readable but drifted from memory: preserve the evidence.
            // qe-allow(QE104): best-effort quarantine rename.
            (void)fs::renameFile(path, path + ".corrupt");
            ++stats_.quarantined;
            ++report.quarantined;
        }
        // Self-heal from the validated in-memory copy (also covers the
        // NotFound case: the file simply vanished).
        int write_errno = 0;
        const Status wrote =
            fs::tryAtomicWriteFile(path, want, &write_errno);
        if (wrote.ok())
            ++report.healed;
        else
            disk_error_ = wrote.message();
    }
    for (const std::string &key : drop) {
        if (!dir_.empty()) {
            // The disk copy encodes the same undecodable circuit;
            // quarantine it for the postmortem rather than let a
            // reload resurrect the entry.
            if (fs::renameFile(entryPath(key),
                               entryPath(key) + ".corrupt")
                    .ok()) {
                ++stats_.quarantined;
                ++report.quarantined;
            }
        }
        eraseEntryLocked(key, /*unlink_disk=*/false);
        ++report.dropped;
    }
    stats_.scrub_checked += report.checked;
    stats_.scrub_healed += report.healed;
    stats_.scrub_dropped += report.dropped;
    return report;
}

CacheStats
CompileCache::stats() const
{
    sync::MutexLock lock(mutex_);
    CacheStats snapshot = stats_;
    snapshot.entries = entries_.size();
    snapshot.bytes = bytes_;
    return snapshot;
}

std::string
CompileCache::lastDiskError() const
{
    sync::MutexLock lock(mutex_);
    return disk_error_;
}

std::string
CompileCache::policyName() const
{
    // name() is stateless, but the policy pointee is lock-guarded as a
    // whole (QAOA_PT_GUARDED_BY) — take the lock rather than carve out
    // an exception the analysis would have to trust.
    sync::MutexLock lock(mutex_);
    return policy_->name();
}

std::string
CompileCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + key + kEntrySuffix;
}

} // namespace qaoa::serve
