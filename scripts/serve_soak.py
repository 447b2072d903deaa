#!/usr/bin/env python3
"""Seeded request-storm soak driver for the qaoa_serve daemon.

Talks the length-prefixed frame protocol (4-byte big-endian length +
one-line flat-JSON record) over the daemon's stdin/stdout.  The storm
mixes repeated (cacheable) and fresh problems across several tenants,
randomly cancels a fraction of requests (abandoned clients), and can
kill the daemon mid-storm (-9) to prove the persisted cache restarts
clean.

Exit code 0 when every assertion below holds:
  * every frame parses and every non-cancelled request is answered,
  * every result payload is a well-formed base64 qbin document (QBIN
    magic after decode),
  * malformed payloads inside well-formed frames (unparseable kv
    record, garbage numeric field, unknown message type) are answered
    with "error" frames carrying the diagnostic code (error_code) and
    — for positional kv parse failures — the byte offset
    (error_offset), after which the daemon still serves results,
  * the cache hit rate is non-zero by the end of the storm,
  * after a kill -9 + restart, the reloaded cache quarantines nothing
    (binary entries reload whole or not at all — a torn write must
    never surface as a loaded entry) and serves at least one hit
    immediately,
  * a legacy v1 text entry planted before the restart is retired
    (renamed *.legacy, counted in cache_retired), not quarantined and
    never loaded.

Usage:
  serve_soak.py --binary build/src/qaoa_serve --seconds 30 \
      --cache-dir /tmp/serve-cache [--kill-restart] [--seed 7]
"""

import argparse
import base64
import binascii
import json
import os
import random
import signal
import struct
import subprocess
import sys
import time


def check_result_payload(frame):
    """Raises unless a result frame's circuit payload decodes to qbin."""
    if frame.get("type") != "result" or "qbin" not in frame:
        return 0
    try:
        blob = base64.b64decode(frame["qbin"], validate=True)
    except (binascii.Error, ValueError) as err:
        raise RuntimeError(
            f"result {frame.get('id')}: qbin payload is not base64: {err}"
        )
    if blob[:4] != b"QBIN":
        raise RuntimeError(
            f"result {frame.get('id')}: payload lacks the QBIN magic"
        )
    return 1


def write_raw_frame(stream, payload):
    stream.write(struct.pack(">I", len(payload)) + payload)
    stream.flush()


def write_frame(stream, record):
    payload = json.dumps(
        {k: str(v) for k, v in record.items()}, separators=(",", ":")
    ).encode()
    write_raw_frame(stream, payload)


def read_frame(stream):
    header = stream.read(4)
    if len(header) == 0:
        return None  # clean EOF
    if len(header) != 4:
        raise RuntimeError("truncated frame header")
    (length,) = struct.unpack(">I", header)
    payload = stream.read(length)
    if len(payload) != length:
        raise RuntimeError("truncated frame body")
    return json.loads(payload.decode())


def ring_edges(n, weight=1.0):
    return ",".join(
        f"{i} {(i + 1) % n} {weight:g}" for i in range(n)
    )


def make_request(rid, tenant, nodes, seed):
    return {
        "type": "compile",
        "id": rid,
        "tenant": tenant,
        "graph": f"{nodes}\n" + ring_edges(nodes).replace(",", "\n"),
        "device": "melbourne",
        "method": "ic",
        "seed": str(seed),
    }


class Daemon:
    def __init__(self, binary, cache_dir, workers=2):
        self.proc = subprocess.Popen(
            [
                binary,
                "--workers",
                str(workers),
                "--queue-capacity",
                "16",
                "--cache-dir",
                cache_dir,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=sys.stderr.buffer,
        )

    def send(self, record):
        write_frame(self.proc.stdin, record)

    def recv(self):
        return read_frame(self.proc.stdout)

    def stats(self):
        self.send({"type": "stats"})
        while True:
            frame = self.recv()
            if frame is None:
                raise RuntimeError("daemon died while awaiting stats")
            if frame["type"] == "stats":
                return frame

    def shutdown(self):
        self.send({"type": "shutdown"})
        self.proc.stdin.close()
        return self.proc.wait(timeout=60)

    def kill9(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)


def await_frame(daemon, want_id):
    """Reads frames until one answers want_id (responses interleave;
    stragglers from cancelled storm requests are skipped)."""
    for _ in range(200):
        frame = daemon.recv()
        if frame is None:
            raise RuntimeError(
                f"daemon died while awaiting an answer for {want_id!r}"
            )
        if frame.get("id", "") == want_id:
            return frame
    raise RuntimeError(f"no frame ever answered id {want_id!r}")


def probe_error_paths(daemon):
    """Injects malformed payloads and asserts each one is answered with
    a structured "error" frame — diagnostic code always, byte offset
    for positional (kv parse) failures — and that the daemon keeps
    serving afterwards.  Returns the number of probes validated."""
    checks = 0

    # (1) Well-framed but unparseable record: the kv parser stops at a
    # byte, so the error frame must carry both the code and the offset.
    write_raw_frame(daemon.proc.stdin, b'{"type":"compile"')
    frame = await_frame(daemon, "")
    if frame.get("type") != "error":
        raise RuntimeError(f"kv garbage not answered with error: {frame}")
    if frame.get("error_code") not in ("malformed", "truncated"):
        raise RuntimeError(f"kv garbage miscoded: {frame}")
    if int(frame.get("error_offset", "-1")) < 0:
        raise RuntimeError(f"kv garbage lost its byte offset: {frame}")
    checks += 1

    # (2) Parseable record, garbage numeric field: an invalid request
    # field (a CLIENT error, never internal), answered under its id.
    bad = make_request("probe-bad-seed", "tenant0", 4, 1)
    bad["seed"] = "not-a-number"
    daemon.send(bad)
    frame = await_frame(daemon, "probe-bad-seed")
    if frame.get("type") != "error":
        raise RuntimeError(f"bad numeric field not an error: {frame}")
    if frame.get("error_code") != "invalid_argument":
        raise RuntimeError(f"bad numeric field miscoded: {frame}")
    checks += 1

    # (3) Unknown message type: an out-of-contract request, not a
    # parse failure — invalid_argument, no offset.
    daemon.send({"type": "frobnicate", "id": "probe-unknown"})
    frame = await_frame(daemon, "probe-unknown")
    if frame.get("type") != "error":
        raise RuntimeError(f"unknown type not an error: {frame}")
    if frame.get("error_code") != "invalid_argument":
        raise RuntimeError(f"unknown type miscoded: {frame}")
    checks += 1

    # One confused client must not take the service down: a healthy
    # request right after the abuse must still produce a result.
    daemon.send(make_request("probe-after", "tenant0", 4, 123_456))
    frame = await_frame(daemon, "probe-after")
    if frame.get("type") != "result" or check_result_payload(frame) != 1:
        raise RuntimeError(
            f"daemon stopped serving after malformed payloads: {frame}"
        )
    checks += 1
    return checks


def storm(daemon, rng, seconds):
    """Drives a seeded storm; returns (sent, answered, cancelled,
    payloads) where payloads counts validated qbin result bodies."""
    deadline = time.monotonic() + seconds
    sent = 0
    payloads = 0
    cancelled = set()
    answered = set()
    pending = set()
    while time.monotonic() < deadline:
        for _ in range(rng.randint(1, 6)):
            rid = f"req{sent}"
            tenant = f"tenant{rng.randint(0, 3)}"
            # 70% replay one of 4 cacheable problems, 30% fresh seeds.
            if rng.random() < 0.7:
                seed = 100 + rng.randint(0, 3)
            else:
                seed = 10_000 + sent
            nodes = rng.choice([4, 6, 8])
            daemon.send(make_request(rid, tenant, nodes, seed))
            pending.add(rid)
            sent += 1
            # A slice of clients gives up immediately (abandoned work).
            if rng.random() < 0.15:
                daemon.send({"type": "cancel", "id": rid})
                cancelled.add(rid)
        # Drain what has been answered so far.
        daemon.send({"type": "stats"})
        while True:
            frame = daemon.recv()
            if frame is None:
                raise RuntimeError("daemon died mid-storm")
            if frame["type"] == "stats":
                break
            payloads += check_result_payload(frame)
            answered.add(frame.get("id", ""))
            pending.discard(frame.get("id", ""))
        time.sleep(0.01)
    # Let the backlog drain: poll until nothing non-cancelled pends.
    for _ in range(600):
        remaining = pending - cancelled
        if not remaining:
            break
        daemon.send({"type": "stats"})
        while True:
            frame = daemon.recv()
            if frame is None:
                raise RuntimeError("daemon died while draining")
            if frame["type"] == "stats":
                break
            payloads += check_result_payload(frame)
            answered.add(frame.get("id", ""))
            pending.discard(frame.get("id", ""))
        time.sleep(0.05)
    remaining = pending - cancelled
    if remaining:
        raise RuntimeError(
            f"{len(remaining)} requests never answered: "
            f"{sorted(remaining)[:5]}..."
        )
    return sent, answered, cancelled, payloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="cap the storm at 10 s total — the CI TSan lane uses this "
        "(TSan's slowdown makes the full 30 s storm needlessly long; "
        "race windows repeat every few requests, not every few seconds)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kill-restart", action="store_true")
    args = parser.parse_args()
    if args.quick:
        args.seconds = min(args.seconds, 10.0)

    rng = random.Random(args.seed)
    os.makedirs(args.cache_dir, exist_ok=True)

    daemon = Daemon(args.binary, args.cache_dir)
    phase1 = args.seconds * (0.5 if args.kill_restart else 1.0)
    sent, answered, cancelled, payloads = storm(daemon, rng, phase1)
    stats = daemon.stats()
    hit_rate = float.fromhex(stats["cache_hit_rate"])
    print(
        f"soak: sent {sent}, answered {len(answered)}, "
        f"cancelled {len(cancelled)}, qbin payloads {payloads}, "
        f"hit rate {hit_rate:.2f}",
        file=sys.stderr,
    )
    if hit_rate <= 0.0:
        print("FAIL: cache hit rate is zero", file=sys.stderr)
        return 1
    if payloads == 0:
        print("FAIL: no result carried a qbin payload", file=sys.stderr)
        return 1

    probes = probe_error_paths(daemon)
    print(
        f"soak: {probes} malformed-payload probes answered with "
        "coded error frames",
        file=sys.stderr,
    )

    if args.kill_restart:
        # Plant a healthy old-format (v1, text QASM) entry: its angles
        # are rounded, so the restarted daemon must retire it — rename
        # it aside and recompile — never load or quarantine it.
        legacy = os.path.join(args.cache_dir, "00feed0123456789.cce")
        with open(legacy, "w") as fh:
            fh.write(
                '{"format":"qaoa-serve-cache-v1",'
                '"key":"00feed0123456789",'
                '"canonical":"canon:legacy","status":"ok",'
                '"qasm":"OPENQASM 2.0;\\n","depth":"1",'
                '"gate_count":"1","cx_count":"0","swap_count":"0",'
                '"compile_ms":"0x1p+0"}'
            )
        # Kill -9 with compiles in flight, restart, and require a
        # clean cache: a burst of un-drained fresh requests guarantees
        # workers are mid-write when the signal lands.
        for i in range(20):
            daemon.send(
                make_request(f"doomed{i}", "tenant0", 8, 90_000 + i)
            )
        daemon.kill9()
        daemon = Daemon(args.binary, args.cache_dir)
        sent2, answered2, cancelled2, payloads2 = storm(
            daemon, rng, args.seconds - phase1
        )
        stats = daemon.stats()
        if int(stats["cache_quarantined"]) != 0:
            print(
                f"FAIL: {stats['cache_quarantined']} corrupt cache "
                "entries after kill -9",
                file=sys.stderr,
            )
            return 1
        if int(stats["cache_loaded"]) == 0:
            print("FAIL: restart loaded no cache entries", file=sys.stderr)
            return 1
        if int(stats["cache_retired"]) < 1:
            print(
                "FAIL: planted legacy v1 entry was not retired",
                file=sys.stderr,
            )
            return 1
        if not os.path.exists(legacy + ".legacy") or os.path.exists(legacy):
            print(
                "FAIL: legacy entry not renamed aside to *.legacy",
                file=sys.stderr,
            )
            return 1
        hit_rate = float.fromhex(stats["cache_hit_rate"])
        print(
            f"soak(restart): sent {sent2}, answered {len(answered2)}, "
            f"loaded {stats['cache_loaded']}, "
            f"retired {stats['cache_retired']}, "
            f"qbin payloads {payloads2}, hit rate {hit_rate:.2f}",
            file=sys.stderr,
        )
        if hit_rate <= 0.0:
            print("FAIL: no hits after restart", file=sys.stderr)
            return 1
        if payloads2 == 0:
            print(
                "FAIL: no qbin payloads after restart", file=sys.stderr
            )
            return 1

    code = daemon.shutdown()
    if code != 0:
        print(f"FAIL: daemon exited {code}", file=sys.stderr)
        return 1
    print("soak: OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
