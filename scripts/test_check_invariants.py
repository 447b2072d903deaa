#!/usr/bin/env python3
"""Unit tests for check_invariants.py — the linter that guards the
QS/QE project invariants is itself under test.

Each rule gets a positive fixture (a minimal violating tree that must
fire) and a negative fixture (the sanctioned idiom that must stay
quiet), plus edge cases for the comment/string stripper and for the
qs-allow/qe-allow suppression placement (same line vs the line
directly above).  Fixtures are built in temp directories and checked
through run_checks(repo) — the same entry point the CLI uses — so the
tests cover path scoping and exemptions, not just the regexes.

Run directly (python3 scripts/test_check_invariants.py) or through
ctest (test name: check_invariants_unit).  unittest only; no external
dependencies.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))


def _load_linter():
    spec = importlib.util.spec_from_file_location(
        "check_invariants", os.path.join(_HERE, "check_invariants.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ci = _load_linter()


class FixtureTree:
    """A throwaway repo root populated with source fixtures."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="qs_fixture_")
        self.root = self._dir.name

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def cleanup(self):
        self._dir.cleanup()


class LinterTestCase(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def violations(self, **kwargs):
        found, _notes = ci.run_checks(self.tree.root, **kwargs)
        return found

    def rule_ids(self, **kwargs):
        return [v[0] for v in self.violations(**kwargs)]

    def assertFires(self, rule_id, **kwargs):
        self.assertIn(rule_id, self.rule_ids(**kwargs))

    def assertQuiet(self, rule_id=None, **kwargs):
        ids = self.rule_ids(**kwargs)
        if rule_id is None:
            self.assertEqual(ids, [])
        else:
            self.assertNotIn(rule_id, ids)


class TestConcurrencyRules(LinterTestCase):
    def test_qs001_raw_mutex_fires(self):
        self.tree.write("src/a.cpp", "#include <mutex>\nstd::mutex m;\n")
        ids = self.rule_ids()
        self.assertEqual(ids.count("QS001"), 2)  # include + declaration

    def test_qs001_exempt_in_sync_hpp(self):
        self.tree.write("src/common/sync.hpp", "std::mutex m;\n")
        self.assertQuiet("QS001")

    def test_qs001_ignores_tests_root(self):
        self.tree.write("tests/t.cpp", "std::mutex m;\n")
        self.assertQuiet("QS001")

    def test_qs002_ofstream_fires_in_src_only(self):
        self.tree.write("src/a.cpp", "std::ofstream out(p);\n")
        self.tree.write("tools/t.cpp", "std::ofstream out(p);\n")
        self.assertEqual(self.rule_ids().count("QS002"), 1)

    def test_qs002_any_fopen_fires(self):
        # The mode string is stripped before matching, so QS002 cannot
        # distinguish write-opens; every raw fopen is a violation.
        self.tree.write(
            "src/a.cpp", 'auto *a = fopen(p, "wb");\nauto *b = fopen(p, "r");\n'
        )
        violations = self.violations()
        self.assertEqual([(v[0], v[2]) for v in violations],
                         [("QS002", 1), ("QS002", 2)])

    def test_qs003_detach_fires_even_in_tests(self):
        self.tree.write("tests/t.cpp", "worker.detach();\n")
        self.assertFires("QS003")

    def test_qs004_sleep_fires_outside_deadline_cpp(self):
        self.tree.write(
            "src/a.cpp",
            "std::this_thread::sleep_for(std::chrono::seconds(1));\n",
        )
        self.assertFires("QS004")
        self.tree.write("src/a.cpp", "int x;\n")
        self.tree.write("src/common/deadline.cpp", "sleep_for(t);\n")
        self.assertQuiet("QS004")

    def test_qs005_thread_type_fires_but_namespace_query_does_not(self):
        self.tree.write(
            "src/a.cpp",
            "int n = std::thread::hardware_concurrency();\n",
        )
        self.assertQuiet("QS005")
        self.tree.write("src/b.cpp", "std::thread t(body);\n")
        self.assertFires("QS005")

    def test_qs006_uncompiled_source_fires(self):
        self.tree.write("src/a.cpp", "int x;\n")
        self.tree.write("src/b.cpp", "int y;\n")
        db = [
            {
                "directory": self.tree.root,
                "file": os.path.join(self.tree.root, "src/a.cpp"),
                "command": "c++ -c src/a.cpp",
            }
        ]
        db_path = self.tree.write("build/compile_commands.json", json.dumps(db))
        violations = self.violations(compile_commands=db_path)
        self.assertEqual([(v[0], v[1]) for v in violations],
                         [("QS006", "src/b.cpp")])

    def test_qs006_skipped_with_note_when_no_db(self):
        self.tree.write("src/a.cpp", "int x;\n")
        found, notes = ci.run_checks(self.tree.root)
        self.assertEqual(found, [])
        self.assertTrue(any("QS006 skipped" in n for n in notes))


class TestErrorPathRules(LinterTestCase):
    def test_qe101_empty_catch_fires(self):
        self.tree.write(
            "src/a.cpp", "void f() { try { g(); } catch (const E &) {} }\n"
        )
        self.assertFires("QE101")

    def test_qe101_comment_only_body_is_still_empty(self):
        # Comments do not excuse a swallow: the body must do something
        # or carry an explicit waiver.
        self.tree.write(
            "src/a.cpp",
            "void f() {\n"
            "    try { g(); } catch (const E &) {\n"
            "        // tolerated\n"
            "    }\n"
            "}\n",
        )
        self.assertFires("QE101")

    def test_qe101_waiver_inside_body_counts(self):
        self.tree.write(
            "src/a.cpp",
            "void f() {\n"
            "    try { g(); } catch (const E &) {\n"
            "        // expected outcome. qe-allow(QE101)\n"
            "    }\n"
            "}\n",
        )
        self.assertQuiet("QE101")

    def test_qe101_fires_in_tests_too(self):
        self.tree.write("tests/t.cpp", "try { g(); } catch (...) {}\n")
        self.assertFires("QE101")

    def test_qe101_nonempty_body_is_quiet(self):
        self.tree.write(
            "src/a.cpp", "try { g(); } catch (const E &e) { log(e); }\n"
        )
        self.assertQuiet("QE101")

    def test_qe102_catch_all_fires_outside_error_hpp(self):
        self.tree.write("src/a.cpp", "try { g(); } catch (...) { h(); }\n")
        self.assertFires("QE102")

    def test_qe102_error_hpp_is_the_firewall(self):
        self.tree.write(
            "src/common/error.hpp", "try { g(); } catch (...) { h(); }\n"
        )
        self.assertQuiet("QE102")

    def test_qe102_typed_catch_is_quiet(self):
        self.tree.write(
            "src/a.cpp", "try { g(); } catch (const std::exception &e) { h(); }\n"
        )
        self.assertQuiet("QE102")

    def test_qe103_throw_in_destructor_fires(self):
        self.tree.write(
            "src/a.cpp",
            "Widget::~Widget()\n"
            "{\n"
            "    if (bad_)\n"
            "        throw std::runtime_error(\"no\");\n"
            "}\n",
        )
        self.assertFires("QE103")

    def test_qe103_throw_in_noexcept_fires(self):
        self.tree.write(
            "src/a.cpp",
            "void f() noexcept\n"
            "{\n"
            "    throw 1;\n"
            "}\n",
        )
        self.assertFires("QE103")

    def test_qe103_throw_after_body_end_is_quiet(self):
        self.tree.write(
            "src/a.cpp",
            "Widget::~Widget()\n"
            "{\n"
            "    cleanup();\n"
            "}\n"
            "void g()\n"
            "{\n"
            "    throw 1;\n"
            "}\n",
        )
        self.assertQuiet("QE103")

    def test_qe103_rethrow_exception_call_is_quiet(self):
        # std::rethrow_exception is a function call, not a `throw`
        # keyword; \bthrow\b must not match inside the identifier.
        self.tree.write(
            "src/a.cpp",
            "void f() noexcept\n"
            "{\n"
            "    std::rethrow_exception(e);\n"
            "}\n",
        )
        self.assertQuiet("QE103")

    def test_qe103_noexcept_false_is_quiet(self):
        self.tree.write(
            "src/a.cpp",
            "void f() noexcept(false)\n"
            "{\n"
            "    throw 1;\n"
            "}\n",
        )
        self.assertQuiet("QE103")

    def test_qe104_void_cast_fires_in_src(self):
        self.tree.write("src/a.cpp", "(void)compute();\n")
        self.assertFires("QE104")

    def test_qe104_tests_are_exempt(self):
        self.tree.write("tests/t.cpp", "(void)compute();\n")
        self.assertQuiet("QE104")

    def test_qe104_void_parameter_list_is_quiet(self):
        self.tree.write("src/a.cpp", "int f(void);\nint g(void) { return 0; }\n")
        self.assertQuiet("QE104")

    def test_qe105_unwrapped_tool_main_fires(self):
        self.tree.write(
            "tools/t.cpp", "int main(int argc, char **argv) { return 0; }\n"
        )
        self.assertFires("QE105")

    def test_qe105_toolmain_wrapped_is_quiet(self):
        self.tree.write(
            "tools/t.cpp",
            "int main(int argc, char **argv)\n"
            "{\n"
            "    return qaoa::toolMain(\"t\", [&] { return run(argc, argv); });\n"
            "}\n",
        )
        self.assertQuiet("QE105")

    def test_qe105_headers_and_mainless_files_are_quiet(self):
        self.tree.write("tools/util.hpp", "int main_like();\n")
        self.tree.write("tools/lib.cpp", "int helper() { return 1; }\n")
        self.assertQuiet("QE105")


class TestDurabilityRules(LinterTestCase):
    def catalogue(self, *names):
        """Writes a failpoint.cpp fixture registering *names."""
        body = "".join(f'    "{n}",\n' for n in names)
        self.tree.write(
            "src/common/failpoint.cpp",
            "constexpr const char *const kFailpointCatalogue[] = {\n"
            + body
            + "};\n",
        )

    def test_qs007_raw_rename_fires_in_src_and_tools(self):
        self.tree.write("src/serve/a.cpp", "std::rename(from, to);\n")
        self.tree.write("tools/t.cpp", "::fsync(fd);\n")
        self.assertEqual(self.rule_ids().count("QS007"), 2)

    def test_qs007_fdatasync_fires(self):
        self.tree.write("src/a.cpp", "fdatasync(fd);\n")
        self.assertFires("QS007")

    def test_qs007_fs_cpp_is_the_durability_authority(self):
        self.tree.write(
            "src/common/fs.cpp",
            "::fsync(fd);\nstd::rename(a, b);\nfdatasync(fd);\n",
        )
        self.assertQuiet("QS007")

    def test_qs007_renamefile_wrapper_is_quiet(self):
        self.tree.write(
            "src/serve/a.cpp", "(void)fs::renameFile(a, b);\n"
        )
        self.assertQuiet("QS007")

    def test_qs007_tests_root_is_exempt(self):
        self.tree.write("tests/t.cpp", "std::rename(a, b);\n")
        self.assertQuiet("QS007")

    def test_qs007_suppression(self):
        self.tree.write(
            "src/a.cpp", "::fsync(fd); // qs-allow(QS007): fixture\n"
        )
        self.assertQuiet("QS007")

    def test_qe106_bijection_is_quiet(self):
        self.catalogue("fs.write", "cache.persist")
        self.tree.write(
            "src/common/fs2.cpp", 'failpoint::poll("fs.write");\n'
        )
        self.tree.write(
            "src/serve/c.cpp",
            'auto fp = failpoint::poll(\n    "cache.persist");\n',
        )
        self.assertQuiet("QE106")

    def test_qe106_unregistered_poll_fires(self):
        self.catalogue("fs.write")
        self.tree.write(
            "src/common/fs2.cpp", 'failpoint::poll("fs.write");\n'
        )
        self.tree.write(
            "src/serve/c.cpp", 'failpoint::poll("no.such.point");\n'
        )
        violations = self.violations()
        self.assertEqual(
            [(v[0], v[1]) for v in violations if v[0] == "QE106"],
            [("QE106", "src/serve/c.cpp")],
        )

    def test_qe106_orphan_catalogue_entry_fires(self):
        self.catalogue("fs.write", "cache.evict")
        self.tree.write(
            "src/common/fs2.cpp", 'failpoint::poll("fs.write");\n'
        )
        violations = self.violations()
        self.assertEqual(
            [(v[0], v[1]) for v in violations if v[0] == "QE106"],
            [("QE106", "src/common/failpoint.cpp")],
        )

    def test_qe106_duplicate_catalogue_entry_fires(self):
        self.catalogue("fs.write", "fs.write")
        self.tree.write(
            "src/common/fs2.cpp", 'failpoint::poll("fs.write");\n'
        )
        self.assertFires("QE106")

    def test_qe106_second_poll_site_fires(self):
        self.catalogue("fs.write")
        self.tree.write(
            "src/common/fs2.cpp", 'failpoint::poll("fs.write");\n'
        )
        self.tree.write(
            "src/serve/c.cpp", 'failpoint::poll("fs.write");\n'
        )
        self.assertEqual(self.rule_ids().count("QE106"), 1)

    def test_qe106_poll_name_survives_string_stripping(self):
        # The name lives inside a string literal: the scanner must keep
        # strings (unlike the token rules) or every site goes dark.
        self.catalogue("fs.write")
        self.tree.write(
            "src/common/fs2.cpp",
            '/* comment */ failpoint::poll("fs.write");\n',
        )
        self.assertQuiet("QE106")

    def test_qe106_tree_without_failpoints_is_quiet(self):
        self.tree.write("src/a.cpp", "int x;\n")
        self.assertQuiet("QE106")


class TestTextParsingRule(LinterTestCase):
    def test_qe107_sto_ato_strto_fire_in_src_and_tools(self):
        self.tree.write("src/serve/a.cpp", "int n = std::stoi(text);\n")
        self.tree.write("src/b.cpp", "long v = strtol(s, &end, 10);\n")
        self.tree.write("tools/t.cpp", "int k = atoi(argv[1]);\n")
        self.tree.write("tools/u.cpp", "double d = std::stod (text);\n")
        self.assertEqual(self.rule_ids().count("QE107"), 4)

    def test_qe107_common_text_cpp_is_the_parser(self):
        self.tree.write(
            "src/common/text.cpp",
            "double v = std::strtod(copy.c_str(), &end);\n",
        )
        self.assertQuiet("QE107")

    def test_qe107_tests_and_bench_are_exempt(self):
        self.tree.write("tests/t.cpp", "int n = std::stoi(text);\n")
        self.tree.write("bench/b.cpp", "int n = atoi(argv[1]);\n")
        self.assertQuiet("QE107")

    def test_qe107_lookalike_names_are_quiet(self):
        self.tree.write(
            "src/a.cpp",
            "std::stop_token tok;\nauto v = text::parseInt(s);\n"
            "store(x);\nauto n = mystoi(s);\n",
        )
        self.assertQuiet("QE107")

    def test_qe107_suppression(self):
        self.tree.write(
            "src/a.cpp",
            "// qe-allow(QE107): positional reader\n"
            "double v = std::strtod(p, &end);\n",
        )
        self.assertQuiet("QE107")


class TestLibraryLayoutRule(LinterTestCase):
    def test_qs008_foreign_source_fires(self):
        self.tree.write(
            "src/CMakeLists.txt",
            "add_library(qaoa_sim STATIC\n"
            "    sim/statevector.cpp\n"
            "    circuit/commutation.cpp)\n",
        )
        found = [v for v in self.violations() if v[0] == "QS008"]
        self.assertEqual(len(found), 1)
        self.assertEqual(found[0][1:3], ("src/CMakeLists.txt", 3))
        self.assertIn("circuit/commutation.cpp", found[0][4])

    def test_qs008_own_directory_is_quiet(self):
        # qaoa_core maps to qaoa/; comments and executables are not
        # library sources.
        self.tree.write(
            "src/CMakeLists.txt",
            "# circuit/gate.cpp named in a comment is no source\n"
            "add_library(qaoa_core STATIC\n"
            "    qaoa/api.cpp)\n"
            "add_library(qaoa_sim STATIC\n"
            "    # sim/ only\n"
            "    sim/commutation.cpp)\n"
            "add_executable(qaoa_compile ../tools/qaoa_compile.cpp)\n",
        )
        self.assertQuiet("QS008")


class TestStripping(LinterTestCase):
    def test_token_in_line_comment_is_ignored(self):
        self.tree.write("src/a.cpp", "// std::mutex would be wrong here\n")
        self.assertQuiet()

    def test_token_in_block_comment_is_ignored(self):
        self.tree.write(
            "src/a.cpp", "/* std::thread t; sleep_for(x); catch (...) {} */\n"
        )
        self.assertQuiet()

    def test_token_in_string_literal_is_ignored(self):
        self.tree.write(
            "src/a.cpp", 'const char *s = "std::mutex catch (...)";\n'
        )
        self.assertQuiet()

    def test_escaped_quote_does_not_end_string(self):
        self.tree.write(
            "src/a.cpp", 'const char *s = "\\" std::mutex";\nint x;\n'
        )
        self.assertQuiet()

    def test_line_numbers_survive_block_comments(self):
        self.tree.write(
            "src/a.cpp", "/* one\n   two\n   three */\nstd::mutex m;\n"
        )
        violations = self.violations()
        self.assertEqual([(v[0], v[2]) for v in violations], [("QS001", 4)])

    def test_code_after_comment_on_same_line_is_checked(self):
        self.tree.write("src/a.cpp", "/* note */ std::mutex m;\n")
        self.assertFires("QS001")


class TestSuppression(LinterTestCase):
    def test_allow_on_same_line(self):
        self.tree.write(
            "src/a.cpp", "std::mutex m; // qs-allow(QS001): fixture\n"
        )
        self.assertQuiet()

    def test_allow_on_preceding_line(self):
        self.tree.write(
            "src/a.cpp", "// qs-allow(QS001): fixture\nstd::mutex m;\n"
        )
        self.assertQuiet()

    def test_allow_two_lines_above_does_not_count(self):
        self.tree.write(
            "src/a.cpp", "// qs-allow(QS001): fixture\n\nstd::mutex m;\n"
        )
        self.assertFires("QS001")

    def test_allow_is_rule_specific(self):
        self.tree.write(
            "src/a.cpp", "std::mutex m; // qs-allow(QS002): wrong rule\n"
        )
        self.assertFires("QS001")

    def test_qe_allow_spelling_for_qe_rules(self):
        self.tree.write(
            "src/a.cpp", "(void)compute(); // qe-allow(QE104): best effort\n"
        )
        self.assertQuiet("QE104")

    def test_multiline_comment_run_anchors_on_last_line(self):
        # A `//` run ending directly above the statement covers it even
        # when the qe-allow marker is on that final comment line.
        self.tree.write(
            "src/a.cpp",
            "// Best-effort cleanup; failure only leaves garbage\n"
            "// behind, never affects correctness. qe-allow(QE104)\n"
            "(void)cleanup();\n",
        )
        self.assertQuiet("QE104")


class TestRepoBaseline(unittest.TestCase):
    def test_real_repo_is_clean(self):
        """The tree this linter ships in must hold its own invariants."""
        repo = os.path.dirname(_HERE)
        found, _notes = ci.run_checks(repo)
        self.assertEqual(
            found, [], "repository violates its own invariants"
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
