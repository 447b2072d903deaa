/**
 * @file
 * qaoa_serve — compile-as-a-service daemon.
 *
 * Speaks the length-prefixed frame protocol of serve/protocol.hpp on
 * stdin/stdout: clients send "compile" / "cancel" / "stats" / "health"
 * / "shutdown" records, the daemon answers "result" / "shed" / "error"
 * / "stats" / "health" frames (responses are asynchronous and may
 * interleave; match them by id).  Cancels are fire-and-forget.  Log
 * lines go to stderr.
 *
 * Operational lifecycle:
 *   - SIGTERM / SIGINT start a graceful drain: admissions close, every
 *     in-flight and queued request is answered at full fidelity, final
 *     stats go to stderr, exit 0.  (Handlers are installed without
 *     SA_RESTART so a blocked stdin read returns EINTR and the main
 *     loop notices the flag promptly.)
 *   - SIGPIPE is ignored: a client closing its pipe mid-response
 *     surfaces as an IoError on the write, which is logged and
 *     survived — the daemon keeps serving the remaining clients and
 *     exits 0 at stdin EOF.
 *   - Failpoints (common/failpoint.hpp) arm from QAOA_FAILPOINTS /
 *     QAOA_FAILPOINT_SEED or --failpoints, for crash-consistency and
 *     fault-injection harnesses.
 *
 * Exit codes (see the README exit-code table):
 *   0  clean shutdown (EOF at a frame boundary, a "shutdown" frame, or
 *      a SIGTERM/SIGINT drain)
 *   1  fatal I/O or framing error (truncated frame, oversized frame,
 *      or an exception escaping to the toolMain boundary)
 *   2  bad command line (including a malformed --failpoints spec)
 *   86 an armed abort failpoint fired (power-cut simulation)
 */

#include <cstdint>
#include <cstdio>
#include <csignal>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/flags.hpp"
#include "common/kv.hpp"
#include "common/sync.hpp"
#include "common/text.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace qaoa;

/** Set by the SIGTERM/SIGINT handler; the main loop polls it. */
volatile std::sig_atomic_t g_drain_signal = 0;

extern "C" void
handleDrainSignal(int sig)
{
    g_drain_signal = sig;
}

/** Serializes ServerStats into a "stats" response payload. */
std::string
statsPayload(const serve::ServerStats &stats,
             const std::string &policy)
{
    kv::Record rec;
    rec.set("type", "stats");
    rec.set("received", std::to_string(stats.received));
    rec.set("cache_hits", std::to_string(stats.cache_hits));
    rec.set("compiled", std::to_string(stats.compiled));
    rec.set("shed", std::to_string(stats.shed));
    rec.set("cancelled", std::to_string(stats.cancelled));
    rec.set("errors", std::to_string(stats.errors));
    rec.set("pressure_downgrades",
            std::to_string(stats.pressure_downgrades));
    rec.set("pressure", stats.pressure);
    rec.set("draining", stats.draining ? "1" : "0");
    rec.set("queue_depth", std::to_string(stats.queue.depth));
    rec.set("queue_admitted", std::to_string(stats.queue.admitted));
    rec.set("queue_shed", std::to_string(stats.queue.shed));
    rec.set("ema_service_ms",
            text::formatHexDouble(stats.queue.ema_service_ms));
    rec.set("cache_entries", std::to_string(stats.cache.entries));
    rec.set("cache_bytes", std::to_string(stats.cache.bytes));
    rec.set("cache_lookup_hits", std::to_string(stats.cache.hits));
    rec.set("cache_lookup_misses", std::to_string(stats.cache.misses));
    rec.set("cache_evictions", std::to_string(stats.cache.evictions));
    rec.set("cache_emergency_evictions",
            std::to_string(stats.cache.emergency_evictions));
    rec.set("cache_loaded", std::to_string(stats.cache.loaded));
    rec.set("cache_quarantined",
            std::to_string(stats.cache.quarantined));
    rec.set("cache_read_errors",
            std::to_string(stats.cache.read_errors));
    rec.set("cache_retired", std::to_string(stats.cache.retired));
    rec.set("cache_scrub_runs", std::to_string(stats.cache.scrub_runs));
    rec.set("cache_scrub_checked",
            std::to_string(stats.cache.scrub_checked));
    rec.set("cache_scrub_healed",
            std::to_string(stats.cache.scrub_healed));
    rec.set("cache_scrub_dropped",
            std::to_string(stats.cache.scrub_dropped));
    rec.set("cache_hit_rate",
            text::formatHexDouble(stats.cache.hitRate()));
    rec.set("cache_policy", policy);
    return kv::serialize(rec);
}

/** Serializes the operational-health snapshot (queue, cache, scrub,
 *  failpoint arm-state) into a "health" response payload. */
std::string
healthPayload(const serve::ServerStats &stats, const std::string &id)
{
    kv::Record rec;
    rec.set("type", "health");
    if (!id.empty())
        rec.set("id", id);
    rec.set("status", stats.draining ? "draining" : "serving");
    rec.set("pressure", stats.pressure);
    rec.set("queue_depth", std::to_string(stats.queue.depth));
    rec.set("queue_tenants", std::to_string(stats.queue.tenants));
    rec.set("received", std::to_string(stats.received));
    rec.set("compiled", std::to_string(stats.compiled));
    rec.set("errors", std::to_string(stats.errors));
    rec.set("cache_entries", std::to_string(stats.cache.entries));
    rec.set("cache_bytes", std::to_string(stats.cache.bytes));
    rec.set("cache_hit_rate",
            text::formatHexDouble(stats.cache.hitRate()));
    rec.set("cache_quarantined",
            std::to_string(stats.cache.quarantined));
    rec.set("cache_read_errors",
            std::to_string(stats.cache.read_errors));
    rec.set("cache_emergency_evictions",
            std::to_string(stats.cache.emergency_evictions));
    rec.set("scrub_runs", std::to_string(stats.cache.scrub_runs));
    rec.set("scrub_checked", std::to_string(stats.cache.scrub_checked));
    rec.set("scrub_healed", std::to_string(stats.cache.scrub_healed));
    rec.set("scrub_dropped", std::to_string(stats.cache.scrub_dropped));
    std::string armed;
    for (const std::string &line : failpoint::armedList()) {
        if (!armed.empty())
            armed += "; ";
        armed += line;
    }
    rec.set("failpoints", armed);
    return kv::serialize(rec);
}

int
runDaemon(int argc, char **argv)
{
    serve::ServerConfig config;
    std::string failpoint_spec;
    cli::FlagTable flags("usage: qaoa_serve [options]");
    flags.integer("--workers", "N", "compile worker threads (default 2)",
                  config.workers, 1)
        .count("--queue-capacity", "N",
               "backlog bound before shedding (default 64)",
               config.queue_capacity)
        .text("--cache-dir", "PATH", "persist the compile cache here",
              config.cache_dir)
        .count("--cache-entries", "N", "cache entry cap (default 256)",
               config.cache_limits.max_entries, 1)
        .uint64("--cache-bytes", "N", "cache byte cap (default 64 MiB)",
                config.cache_limits.max_bytes)
        .choice("--cache-policy", "eviction policy (default lru)",
                config.cache_policy, {"lru", "fifo"})
        .integer("--max-nodes", "N",
                 "largest admissible problem (default 64)", config.max_nodes)
        .real("--stage-budget-ms", "X", "default per-stage watchdog budget",
              config.default_stage_budget_ms)
        .real("--scrub-interval-ms", "X",
              "periodic cache scrub cadence (default off)",
              config.scrub_interval_ms)
        .setFlag("--no-scrub-on-start", "skip the startup cache scrub",
                 config.scrub_on_start, false)
        .text("--failpoints", "SPEC",
              "arm failpoints (also: QAOA_FAILPOINTS)", failpoint_spec);
    if (const std::optional<int> exit = flags.parse(argc, argv))
        return *exit;

    // Fault injection arms before anything touches the disk, so even
    // the cache reload at start() runs under the schedule.
    if (Status armed = failpoint::armFromEnv(); !armed.ok()) {
        std::fprintf(stderr, "qaoa_serve: %s\n",
                     armed.toString().c_str());
        return 2;
    }
    if (!failpoint_spec.empty()) {
        if (Status armed = failpoint::armFromSpec(failpoint_spec);
            !armed.ok())
            return cli::usageError("--failpoints: " + armed.message());
    }
    if (failpoint::anyArmed())
        for (const std::string &line : failpoint::armedList())
            std::fprintf(stderr, "qaoa_serve: failpoint armed: %s\n",
                         line.c_str());

#ifndef _WIN32
    // A client that closes its pipe mid-response must surface as an
    // IoError on the write, never as a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    // Drain signals: deliberately no SA_RESTART, so a blocked stdin
    // read returns EINTR and the loop below sees the flag promptly
    // instead of waiting for the next client frame.
    struct sigaction drain_action = {};
    drain_action.sa_handler = handleDrainSignal;
    sigemptyset(&drain_action.sa_mask);
    drain_action.sa_flags = 0;
    ::sigaction(SIGTERM, &drain_action, nullptr);
    ::sigaction(SIGINT, &drain_action, nullptr);
#endif

    // Worker callbacks interleave with main-loop responses, so
    // every frame write goes through one mutex + flush.  Declared
    // before the server: if the read loop exits, unwinding runs
    // CompileServer's destructor (stop() drains queued requests
    // through their response callbacks) while these still exist.
    // Writes are firewalled: with SIGPIPE ignored, a vanished client
    // turns into an IoError here, which is logged once and survived.
    sync::Mutex out_mutex;
    std::uint64_t write_failures = 0; // under out_mutex
    const auto write_payload = [&](const std::string &bytes) {
        sync::MutexLock lock(out_mutex);
        const Status wrote = exceptionBoundary("frame write", [&] {
            serve::writeFrame(std::cout, bytes);
            std::cout.flush();
        });
        if (!wrote.ok() && write_failures++ == 0)
            std::fprintf(stderr,
                         "qaoa_serve: response write failed (%s); "
                         "client gone? continuing\n",
                         wrote.toString().c_str());
    };
    const auto write_response = [&](const serve::ServeResponse &r) {
        write_payload(serve::encodeResponse(r));
    };

    // Malformed-payload answer: the diagnostic code and (for framing /
    // decode failures) the byte offset travel with the message, so a
    // client can pinpoint the broken byte without grepping prose.
    const auto answer_error = [&](const std::string &id,
                                  const Status &status) {
        serve::ServeResponse err;
        err.type = "error";
        err.id = id;
        err.error = status.message();
        err.error_code = errorCodeName(status.code());
        err.error_offset = status.offset();
        write_response(err);
    };

    serve::CompileServer server(config);
    server.start();
    const auto loaded = server.stats().cache;
    std::fprintf(stderr,
                 "qaoa_serve: %d workers, queue %zu, cache %s "
                 "(%zu entries loaded, %llu quarantined, %llu scrub-"
                 "healed)\n",
                 config.workers, config.queue_capacity,
                 config.cache_dir.empty() ? "memory-only"
                                          : config.cache_dir.c_str(),
                 loaded.entries,
                 static_cast<unsigned long long>(loaded.quarantined),
                 static_cast<unsigned long long>(loaded.scrub_healed));

    std::string payload;
    bool shutdown = false;
    bool drain = false;
    while (!shutdown) {
        if (g_drain_signal != 0) {
            drain = true;
            break;
        }
        const Status frame = serve::readFrame(std::cin, payload);
        if (g_drain_signal != 0) {
            // The signal interrupted the blocked read (EINTR, no
            // SA_RESTART); whatever Status came back, drain wins.
            drain = true;
            break;
        }
        if (frame.code() == ErrorCode::EndOfStream)
            break; // Clean client disconnect.
        if (!frame.ok()) {
            // A torn or oversized frame means the byte stream itself
            // is unusable; there is no client left to answer.
            std::fprintf(stderr, "qaoa_serve: fatal: %s\n",
                         frame.toString().c_str());
            return 1;
        }
        const StatusOr<kv::Record> parsed = kv::tryParse(payload);
        if (!parsed.ok()) {
            answer_error("", parsed.status());
            continue;
        }
        const kv::Record &rec = parsed.value();
        const std::string type = rec.get("type", "");
        const std::string id = rec.get("id", "");
        if (type == "compile") {
            StatusOr<serve::CompileRequest> request =
                serve::tryRequestFromRecord(rec, config.max_nodes);
            if (!request.ok()) {
                answer_error(id, request.status());
                continue;
            }
            // Submission runs cache lookups and response callbacks
            // inline; an escapee here is answered, not fatal — the
            // daemon must outlive any single request.
            const Status submitted =
                exceptionBoundary("submit", [&] {
                    server.submit(std::move(request).value(),
                                  write_response);
                });
            if (!submitted.ok())
                answer_error(id, submitted);
        } else if (type == "cancel") {
            server.cancel(id); // Fire-and-forget.
        } else if (type == "stats") {
            write_payload(statsPayload(server.stats(),
                                       server.cacheRef().policyName()));
        } else if (type == "health") {
            write_payload(healthPayload(server.stats(), id));
        } else if (type == "shutdown") {
            shutdown = true;
        } else {
            answer_error(id, Status(ErrorCode::InvalidArgument,
                                    "unknown message type: " + type));
        }
    }

    if (drain) {
        std::fprintf(stderr,
                     "qaoa_serve: signal %d: draining (admissions "
                     "closed, answering in-flight requests)\n",
                     static_cast<int>(g_drain_signal));
        server.drain();
    } else {
        server.stop();
    }
    const serve::ServerStats final_stats = server.stats();
    std::fprintf(
        stderr,
        "qaoa_serve: served %llu (hits %llu, compiled %llu, shed "
        "%llu, cancelled %llu, errors %llu), cache hit rate %.2f%s\n",
        static_cast<unsigned long long>(final_stats.received),
        static_cast<unsigned long long>(final_stats.cache_hits),
        static_cast<unsigned long long>(final_stats.compiled),
        static_cast<unsigned long long>(final_stats.shed),
        static_cast<unsigned long long>(final_stats.cancelled),
        static_cast<unsigned long long>(final_stats.errors),
        final_stats.cache.hitRate(), drain ? " (drained)" : "");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return toolMain("qaoa_serve", [&] { return runDaemon(argc, argv); });
}
