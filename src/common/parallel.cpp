#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/text.hpp"

namespace qaoa::par {

namespace {

/** Set while a thread executes chunks of a parallel region; nested
 *  parallelFor calls on such a thread run inline instead of re-entering
 *  the pool. */
thread_local bool tls_in_region = false;

/** QAOA_THREADS (clamped to >= 1), or hardware_concurrency fallback. */
int
resolveAutoThreads()
{
    // Called once (threadCount caches the result in a static); the
    // process never calls setenv, so the environment block is stable.
    if (const char *env = std::getenv("QAOA_THREADS")) { // NOLINT(concurrency-mt-unsafe)
        if (const StatusOr<int> v = text::parseInt(env, 1, 4096); v.ok())
            return v.value();
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

/**
 * Lazily-started worker pool shared by every parallel region.
 *
 * One region runs at a time (run() serializes on run_mutex_); the
 * calling thread participates, so a pool sized for T threads keeps
 * T - 1 workers.  Chunks are claimed from an atomic cursor, which
 * balances uneven chunk costs without affecting determinism (each chunk
 * computes the same values no matter which thread claims it).  run()
 * does not return until every worker that joined the job has left it
 * (working_ == 0), so the job's function can safely live on the
 * caller's stack.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool;
        return pool;
    }

    ~ThreadPool() { shutdown(); }

    /** Runs fn(chunk) for chunk in [0, chunks) on @p threads threads. */
    void
    run(std::uint64_t chunks, int threads,
        const std::function<void(std::uint64_t)> &fn)
    {
        sync::MutexLock run_lock(run_mutex_);
        ensureWorkers(threads - 1);
        {
            sync::MutexLock lock(mutex_);
            fn_ = &fn;
            chunks_ = chunks;
            next_.store(0, std::memory_order_relaxed);
            done_.store(0, std::memory_order_relaxed);
            error_ = nullptr;
            failed_.store(false, std::memory_order_relaxed);
            ++generation_;
        }
        cv_.notifyAll();

        // The caller works too; tls_in_region makes nested regions
        // inline so run_mutex_ is never re-acquired on this thread.
        tls_in_region = true;
        drainChunks(&fn, chunks);
        tls_in_region = false;

        sync::MutexLock lock(mutex_);
        // Caller-owned predicate loop: the guarded reads stay in a
        // scope the thread-safety analysis sees as locked.
        while (!(done_.load() == chunks_ && working_ == 0))
            done_cv_.wait(lock);
        fn_ = nullptr;
        std::exception_ptr error = error_;
        if (error)
            std::rethrow_exception(error);
    }

  private:
    ThreadPool() = default;

    void
    ensureWorkers(int count)
    {
        sync::MutexLock lock(mutex_);
        while (static_cast<int>(workers_.size()) < count)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    workerLoop()
    {
        tls_in_region = true;
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(std::uint64_t)> *fn = nullptr;
            std::uint64_t chunks = 0;
            {
                sync::MutexLock lock(mutex_);
                while (!(stop_ || (generation_ != seen && fn_ != nullptr)))
                    cv_.wait(lock);
                if (stop_)
                    return;
                seen = generation_;
                fn = fn_;
                chunks = chunks_;
                ++working_;
            }
            drainChunks(fn, chunks);
            {
                sync::MutexLock lock(mutex_);
                --working_;
                if (working_ == 0)
                    done_cv_.notifyAll();
            }
        }
    }

    /** Claims and executes chunks until the cursor is exhausted. */
    void
    drainChunks(const std::function<void(std::uint64_t)> *fn,
                std::uint64_t chunks)
    {
        for (;;) {
            std::uint64_t c = next_.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                break;
            if (!failed_.load(std::memory_order_relaxed)) {
                // Firewall: a throwing chunk must not unwind a pool
                // thread.  Capture the first escapee for the region
                // owner to rethrow; siblings keep draining the cursor.
                std::exception_ptr escaped =
                    exceptionBoundaryCapture([&] { (*fn)(c); });
                if (escaped) {
                    sync::MutexLock lock(mutex_);
                    if (!error_)
                        error_ = escaped;
                    failed_.store(true, std::memory_order_relaxed);
                }
            }
            if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
                sync::MutexLock lock(mutex_);
                done_cv_.notifyAll();
            }
        }
    }

    void
    shutdown()
    {
        {
            sync::MutexLock lock(mutex_);
            stop_ = true;
        }
        cv_.notifyAll();
        for (std::thread &t : workers_)
            t.join();
        workers_.clear();
    }

    sync::Mutex run_mutex_; ///< Serializes whole regions.
    sync::Mutex mutex_;     ///< Guards job state + wait conditions.
    sync::CondVar cv_;
    sync::CondVar done_cv_;
    /** Only grown under mutex_ inside ensureWorkers(); run_mutex_ makes
     *  that single-caller, and shutdown() runs after all regions. */
    std::vector<std::thread> workers_;
    std::uint64_t generation_ QAOA_GUARDED_BY(mutex_) = 0;
    /** Workers currently inside drainChunks(). */
    int working_ QAOA_GUARDED_BY(mutex_) = 0;
    bool stop_ QAOA_GUARDED_BY(mutex_) = false;

    // Current job (valid while fn_ != nullptr).
    const std::function<void(std::uint64_t)> *fn_ QAOA_GUARDED_BY(mutex_) =
        nullptr;
    std::uint64_t chunks_ QAOA_GUARDED_BY(mutex_) = 0;
    std::atomic<std::uint64_t> next_{0};
    std::atomic<std::uint64_t> done_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr error_ QAOA_GUARDED_BY(mutex_);
};

std::atomic<int> g_thread_override{0};

} // namespace

int
threadCount()
{
    int override = g_thread_override.load(std::memory_order_relaxed);
    if (override > 0)
        return override;
    static const int auto_threads = resolveAutoThreads();
    return auto_threads;
}

void
setThreadCount(int n)
{
    QAOA_CHECK(n >= 0 && n <= 4096, "thread count out of range: " << n);
    QAOA_CHECK(!tls_in_region,
               "setThreadCount() inside a parallel region");
    g_thread_override.store(n, std::memory_order_relaxed);
}

bool
inParallelRegion()
{
    return tls_in_region;
}

void
parallelForChunks(std::uint64_t begin, std::uint64_t end,
                  const ChunkBody &body)
{
    if (begin >= end)
        return;
    const std::uint64_t n = end - begin;
    const std::uint64_t chunks = (n + kChunkSize - 1) / kChunkSize;
    auto chunk_range = [&](std::uint64_t c) {
        std::uint64_t cb = begin + c * kChunkSize;
        std::uint64_t ce = std::min(end, cb + kChunkSize);
        body(c, cb, ce);
    };
    const int threads = threadCount();
    if (threads <= 1 || n < kSerialCutoff || tls_in_region || chunks == 1) {
        // Inline path still walks the same chunk grid so per-chunk
        // results (e.g. reduction partials) are identical to the
        // threaded path.
        for (std::uint64_t c = 0; c < chunks; ++c)
            chunk_range(c);
        return;
    }
    ThreadPool::instance().run(chunks, threads, chunk_range);
}

void
parallelFor(std::uint64_t begin, std::uint64_t end, const RangeBody &body)
{
    parallelForChunks(begin, end,
                      [&](std::uint64_t, std::uint64_t cb, std::uint64_t ce) {
                          body(cb, ce);
                      });
}

double
parallelReduceSum(std::uint64_t begin, std::uint64_t end,
                  const RangeSum &chunkSum)
{
    if (begin >= end)
        return 0.0;
    const std::uint64_t n = end - begin;
    const std::uint64_t chunks = (n + kChunkSize - 1) / kChunkSize;
    std::vector<double> partials(chunks, 0.0);
    parallelForChunks(begin, end,
                      [&](std::uint64_t c, std::uint64_t cb,
                          std::uint64_t ce) { partials[c] = chunkSum(cb, ce); });
    // Combine in chunk order: the total is independent of which thread
    // produced each partial.
    double total = 0.0;
    for (double p : partials)
        total += p;
    return total;
}

void
parallelForTasks(std::uint64_t count,
                 const std::function<void(std::uint64_t)> &body)
{
    if (count == 0)
        return;
    const int threads = threadCount();
    if (threads <= 1 || count == 1 || tls_in_region) {
        for (std::uint64_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool::instance().run(count, threads, body);
}

ScopedInlineRegion::ScopedInlineRegion() : previous_(tls_in_region)
{
    tls_in_region = true;
}

ScopedInlineRegion::~ScopedInlineRegion()
{
    tls_in_region = previous_;
}

WorkerGroup::~WorkerGroup()
{
    // A worker's exception surfacing from a destructor would
    // terminate; join() explicitly to observe it.
    destructorBoundary("WorkerGroup::~WorkerGroup", [this] { join(); });
}

void
WorkerGroup::start(int count, const std::function<void(int)> &body)
{
    QAOA_CHECK(count >= 1, "WorkerGroup: thread count must be >= 1");
    QAOA_ASSERT(threads_.empty(), "WorkerGroup: start() on a live group");
    error_ = nullptr;
    threads_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        threads_.emplace_back([this, body, i] {
            // Firewall: preserve the original exception for join() to
            // rethrow on the owning thread (first escapee wins).
            std::exception_ptr escaped =
                exceptionBoundaryCapture([&] { body(i); });
            if (escaped) {
                sync::MutexLock lock(error_mutex_);
                if (!error_)
                    error_ = escaped;
            }
        });
    }
}

void
WorkerGroup::join()
{
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
    threads_.clear();
    std::exception_ptr error;
    {
        sync::MutexLock lock(error_mutex_);
        error = error_;
        error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
parallelForTasks(std::uint64_t count, const run::CancelToken &cancel,
                 const std::function<void(std::uint64_t)> &body)
{
    parallelForTasks(count, [&](std::uint64_t i) {
        if (cancel.cancelled())
            return; // batch is being torn down; skip unstarted work
        std::exception_ptr escaped =
            exceptionBoundaryCapture([&] { body(i); });
        if (escaped) {
            cancel.requestCancel(); // fail fast: unblock the siblings
            std::rethrow_exception(escaped);
        }
    });
}

} // namespace qaoa::par
