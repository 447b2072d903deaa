#!/usr/bin/env python3
"""Exit-code contract tests for the command-line tools.

README.md documents one exit-code table per tool; these tests pin the
codes the firewall work made load-bearing: an induced failure (missing
input file, torn qbin document, unknown flag) must exit with the
documented code and a classified one-line report — never a signal
(abort / uncaught exception) and never a silent zero.

Every tool parses its command line through one flag table
(common/flags.hpp): a malformed or out-of-range flag value is a usage
error — exit 2 with one "error: --flag: reason" line — in all four.

Usage: test_tool_exits.py QAOA_QBIN QAOA_COMPILE QAOA_LINT QAOA_SERVE
(ctest passes the built binary paths; see tests/CMakeLists.txt).
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import unittest

QBIN = None
COMPILE = None
LINT = None
SERVE = None


def run(binary, *args, timeout=120):
    return subprocess.run(
        [binary, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


class ToolExitTestCase(unittest.TestCase):
    def assertExit(self, proc, code):
        self.assertGreaterEqual(
            proc.returncode, 0,
            f"tool died on a signal ({proc.returncode}): {proc.stderr}",
        )
        self.assertEqual(
            proc.returncode, code,
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}",
        )

    def assertUsageError(self, proc, flag):
        """Exit 2 with exactly one "error:" line, naming @p flag."""
        self.assertExit(proc, 2)
        errors = [
            line for line in proc.stderr.splitlines()
            if line.startswith("error:")
        ]
        self.assertEqual(len(errors), 1, proc.stderr)
        self.assertIn(flag, errors[0])


class TestQbinExits(ToolExitTestCase):
    def test_missing_input_file_is_fatal_1_not_abort(self):
        out = os.path.join(tempfile.gettempdir(), "unused.qbin")
        proc = run(QBIN, "encode", "/nonexistent/input.qasm", out)
        self.assertExit(proc, 1)
        self.assertIn("qaoa_qbin: fatal:", proc.stderr)

    def test_torn_qbin_document_reports_code_and_offset(self):
        # A structurally valid header with a body cut mid-field: the
        # decode must exit 1 with the malformed/truncated classification
        # and a byte offset in the report, not a crash.
        with tempfile.TemporaryDirectory() as tmp:
            torn = os.path.join(tmp, "torn.qbin")
            with open(torn, "wb") as fh:
                fh.write(b"QBIN")          # magic
                fh.write(bytes([1, 1, 0, 0]))  # kind=circuit v1
                fh.write(struct.pack("<I", 4))  # claims 4 qubits...
                # ...and then the stream ends (no gate count).
            proc = run(QBIN, "decode", torn, os.path.join(tmp, "out.qasm"))
            self.assertExit(proc, 1)
            self.assertIn("qaoa_qbin: fatal:", proc.stderr)
            self.assertIn("truncated", proc.stderr)
            self.assertIn("at byte", proc.stderr)

    def test_bad_magic_reports_malformed(self):
        with tempfile.TemporaryDirectory() as tmp:
            bogus = os.path.join(tmp, "bogus.qbin")
            with open(bogus, "wb") as fh:
                fh.write(b"NOPE" + bytes(8))
            proc = run(QBIN, "decode", bogus, os.path.join(tmp, "out.qasm"))
            self.assertExit(proc, 1)

    def test_usage_errors_exit_2(self):
        self.assertExit(run(QBIN), 2)
        self.assertExit(run(QBIN, "frobnicate"), 2)
        self.assertExit(run(QBIN, "encode", "only-one-path"), 2)

    def test_roundtrip_success_exits_0(self):
        qasm = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[2];\n"
            "creg c[2];\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "c.qasm")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(qasm)
            proc = run(QBIN, "roundtrip", src)
            self.assertExit(proc, 0)


class TestCompileExits(ToolExitTestCase):
    def test_missing_graph_file_exits_1(self):
        proc = run(COMPILE, "--graph", "/nonexistent/graph.txt")
        self.assertExit(proc, 1)
        self.assertIn("error", proc.stderr)

    def test_unknown_flag_exits_2(self):
        self.assertExit(run(COMPILE, "--frobnicate"), 2)

    def test_missing_required_input_exits_2(self):
        self.assertExit(run(COMPILE), 2)

    def test_help_exits_0(self):
        self.assertExit(run(COMPILE, "--help"), 0)

    def test_small_compile_exits_0(self):
        with tempfile.TemporaryDirectory() as tmp:
            graph = os.path.join(tmp, "g.txt")
            with open(graph, "w", encoding="utf-8") as fh:
                fh.write("4\n0 1\n1 2\n2 3\n3 0\n")
            proc = run(COMPILE, "--graph", graph, "--device", "linear4")
            self.assertExit(proc, 0)


class TestFlagValueErrors(ToolExitTestCase):
    """Each case exited 0 or 1 (or ran with a wrapped value) before the
    shared flag table; now every one is a usage error at the flag."""

    def test_compile_bad_values(self):
        for flag, value in (("--dead-qubits", "3x"), ("--levels", "0"),
                            ("--seed", "-1")):
            with self.subTest(flag=flag):
                proc = run(COMPILE, "--graph", "/nonexistent", flag, value)
                self.assertUsageError(proc, flag)

    def test_lint_bad_values(self):
        for flag, value in (("--instances", "-2"), ("--levels", "0")):
            with self.subTest(flag=flag):
                proc = run(LINT, "--workload", "fig11", flag, value)
                self.assertUsageError(proc, flag)

    def test_qbin_bad_value(self):
        proc = run(QBIN, "roundtrip", "F", "--max-qubits", "abc")
        self.assertUsageError(proc, "--max-qubits")

    def test_serve_bad_values(self):
        for flag, value in (("--workers", "0"), ("--cache-entries", "0"),
                            ("--workers", "2x"),
                            ("--queue-capacity", "-1")):
            with self.subTest(flag=flag, value=value):
                self.assertUsageError(run(SERVE, flag, value), flag)

    def test_unknown_flag_and_missing_value(self):
        for binary in (QBIN, COMPILE, LINT, SERVE):
            with self.subTest(binary=binary):
                self.assertUsageError(run(binary, "--frobnicate"),
                                      "--frobnicate")
        self.assertUsageError(run(LINT, "--graph"), "--graph")

    def test_help_exits_0_everywhere(self):
        for binary in (QBIN, COMPILE, LINT, SERVE):
            with self.subTest(binary=binary):
                proc = run(binary, "--help")
                self.assertExit(proc, 0)
                self.assertIn("usage:", proc.stdout)


class TestLintOutputPins(ToolExitTestCase):
    """qaoa_lint's rendered findings are byte-stable: the Fig. 11 pool
    on tokyo with the random calibration, failing at the info bar, in
    every output format.  The crosstalk run renders QL111 warnings next
    to the QL108-QL110/QL114 infos.  A change to a rule, its severity or
    the finding text moves one of these digests."""

    BASE = ("--workload", "fig11", "--device", "tokyo", "--calib",
            "random", "--instances", "1", "--fail-on", "info")
    PINS = {
        ("--format", "text"):
            "bdb6d992149d6c68ed246ca83bbbc46e"
            "15c63b565e11619dd1fa8e4ad588110a",
        ("--format", "csv"):
            "f0c09c6dd84b1408c3fe4c5870eaa7df"
            "05596175d7d06f94537cbb0f7e738a6e",
        ("--format", "json"):
            "a6965156bdf3a4982238fef53f672576"
            "95683bcc2c2cfe3bbd9e65b168b1adb4",
        ("--format", "text", "--crosstalk-pairs",
         "0-1x2-3,5-6x7-8,1-6x2-7"):
            "69046adfd069a9551261ee1d89f8b09b"
            "63d12bb657b57d8def2047a09f5ba4ae",
    }

    def test_fig11_lint_output_is_pinned(self):
        for extra, digest in self.PINS.items():
            with self.subTest(args=" ".join(extra)):
                proc = subprocess.run(
                    [LINT, *self.BASE, *extra], stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    timeout=120)
                self.assertExit(proc, 1)
                self.assertEqual(hashlib.sha256(proc.stdout).hexdigest(),
                                 digest)


class TestServeWireNumbers(ToolExitTestCase):
    """Request fields go through the same checked parser as the flags:
    a malformed number gets an invalid_argument error frame (seed=-1
    used to wrap, packing=7abc to read 7, dead_qubits=3x to kill qubit
    3) and the daemon then answers a healthy request."""

    def test_bad_numbers_answered_then_serving_continues(self):
        def frame(record):
            body = json.dumps(record).encode()
            return struct.pack(">I", len(body)) + body

        request = {"type": "compile", "graph": "4\n0 1\n1 2\n2 3\n3 0\n",
                   "device": "linear6"}
        bad = {"bad-seed": ("seed", "-1"), "bad-packing": ("packing", "7abc"),
               "bad-dead": ("dead_qubits", "3x")}
        proc = subprocess.Popen([SERVE], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        for rid, (key, value) in bad.items():
            proc.stdin.write(frame(dict(request, id=rid, **{key: value})))
        proc.stdin.write(frame(dict(request, id="healthy")))
        proc.stdin.flush()
        # Read every answer before closing stdin: EOF stops the daemon,
        # which cancels whatever is still queued.
        answers = {}
        while len(answers) < len(bad) + 1:
            (length,) = struct.unpack(">I", proc.stdout.read(4))
            answer = json.loads(proc.stdout.read(length))
            answers[answer["id"]] = answer
        proc.stdin.close()
        self.assertEqual(proc.wait(timeout=120), 0)
        for rid, (key, _) in bad.items():
            self.assertEqual(answers[rid]["type"], "error", answers[rid])
            self.assertEqual(answers[rid]["error_code"], "invalid_argument")
            self.assertIn(key, answers[rid]["error"])
        self.assertEqual(answers["healthy"]["type"], "result",
                         answers["healthy"])


def main():
    global QBIN, COMPILE, LINT, SERVE
    if len(sys.argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    QBIN, COMPILE, LINT, SERVE = sys.argv[1:5]
    for binary in (QBIN, COMPILE, LINT, SERVE):
        if not os.access(binary, os.X_OK):
            print(f"error: not executable: {binary}", file=sys.stderr)
            return 2
    sys.argv = sys.argv[:1]
    unittest.main(verbosity=2)


if __name__ == "__main__":
    sys.exit(main())
