#!/usr/bin/env python3
"""Project-invariant linter: concurrency, persistence, library-layout
and error-path rules (QS00x / QE10x).

The QAOA serving stack is proved race-free by three complementary
layers: clang's thread-safety analysis (static, per-translation-unit),
ThreadSanitizer (dynamic, whole-program), and this linter — which
enforces the *project conventions* that make the first two layers
sound.  TSA can only check locks it can see, so every lock must be a
sync::Mutex (QS001); crash-safety proofs assume every persistence
write is an atomic rename (QS002); clean shutdown proofs assume no
thread outlives its owner (QS003, QS005); and cancellation-latency
bounds assume no thread blocks in an uncancellable sleep (QS004).

The QE rules make the error paths equally auditable: every exception
either reaches a typed handler or crosses one of the named firewall
boundaries in common/error.hpp — never a silent swallow, never a
terminate() from a destructor, never a dropped [[nodiscard]] Status.

Rules (see DESIGN.md §13/§14 for the catalogue with rationale):

  QS001  No raw std::mutex / std::lock_guard / std::unique_lock /
         std::condition_variable / <mutex> / <condition_variable>
         outside src/common/sync.hpp.  Wrappers carry the capability
         annotations; a raw primitive is invisible to the analysis.
  QS002  No direct write-opens (std::ofstream, fopen "w"/"a") in src/
         outside common/fs.cpp.  Persistence goes through
         fs::atomicWriteFile (temp + rename) so a crash never leaves
         a torn file.
  QS003  No std::thread::detach().  A detached thread cannot be
         joined, so shutdown cannot prove quiescence.
  QS004  No blocking sleeps (sleep_for / sleep_until / usleep /
         nanosleep) in src/ or tools/ outside common/deadline.cpp.
         run::cancellableSleepMs is the one sanctioned sleep; it
         wakes on cancellation.
  QS005  No std::thread construction outside src/common/parallel.*.
         ThreadPool and WorkerGroup are the two thread substrates;
         both guarantee join-on-destruction.
  QS006  Every .cpp under src/ and tools/ appears in the compilation
         database — a file the build does not compile is a file no
         analysis ever sees.  (Skipped unless compile_commands.json
         is found or given via --compile-commands.)
  QS007  No raw fsync / fdatasync / rename calls in src/ or tools/
         outside common/fs.cpp.  Durability has one authority:
         fs::tryAtomicWriteFile owns the fsync-before-rename /
         fsync-dir-after contract and fs::renameFile is the one
         sanctioned move — a stray rename elsewhere silently skips
         both the temp-file discipline and the failpoint coverage.
  QS008  Every source inside an add_library(qaoa_<x> ...) block of
         src/CMakeLists.txt sits under that library's directory
         (<x>/, except qaoa_core -> qaoa/).  A file compiled into a
         foreign library hides a dependency edge from the library
         graph; move the file instead.  (CMake text, so no inline
         waiver applies.)
  QE101  No empty catch bodies anywhere (src, tools, tests, bench).
         A body that is empty once comments are stripped swallows the
         exception; comments do not excuse it — a deliberate swallow
         needs a qe-allow(QE101) waiver saying why.
  QE102  No `catch (...)` in src/ or tools/ outside the firewall
         helpers in common/error.hpp.  exceptionBoundary() and
         friends are the only places allowed to catch everything,
         because they are the only places that re-classify instead of
         swallowing.
  QE103  No `throw` inside a destructor or noexcept function body.
         Throwing there is terminate(); cleanup that can throw wraps
         in destructorBoundary().  (Textual approximation: flags
         bodies introduced by `~T()` or a `noexcept` specifier.)
  QE104  No `(void)` casts in src/ or tools/ — that is the idiom that
         silences [[nodiscard]], and a silenced Status is an ignored
         error.  Deliberate best-effort discards carry a
         qe-allow(QE104) comment naming why ignoring is sound.
         (Tests are exempt: EXPECT_THROW must discard by design.)
  QE105  Every tool main() under tools/ delegates to qaoa::toolMain()
         so an escaped exception becomes the documented fatal exit
         code, not an abort.
  QE106  Failpoint names form a bijection: every failpoint::poll("x")
         in src/ or tools/ names an entry of the catalogue in
         common/failpoint.cpp, each catalogue entry is registered
         exactly once and polled at exactly one site.  A name that
         drifts (typo'd poll, stale catalogue row, copy-pasted site)
         makes QAOA_FAILPOINTS specs silently arm nothing.
  QE107  No std::sto* / ato* / strto* in src/ or tools/ outside
         common/text.cpp.  The checked whole-token parsers there are
         the one way to turn text into numbers; the C library calls
         accept "3x" as 3, wrap "-1" to 2^64-1 or skip leading space,
         which is how a malformed flag or wire field slips through as
         a silent value.  A reader that needs the end position inside
         a longer line carries a qe-allow(QE107) waiver.

Suppression: a `qs-allow(QS00x)` / `qe-allow(QE10x)` comment on the
offending line or the line directly above it waives that rule for that
line; the comment is expected to say why.  Matching is text-based on
comment/string-stripped source — crude but dependency-free, same trade
as scripts/serve_soak.py.

Exit status: 0 clean, 1 violations found, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")

# rule id -> (description, regex on stripped code, roots, exempt paths)
RULES = {
    "QS001": {
        "summary": "raw synchronization primitive outside common/sync.hpp",
        "pattern": re.compile(
            r"std::(recursive_|timed_|shared_)*mutex\b"
            r"|std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b"
            r"|std::shared_lock\b|std::condition_variable\b"
            r"|#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
        ),
        "roots": ("src", "tools"),
        "exempt": ("src/common/sync.hpp",),
    },
    "QS002": {
        "summary": "persistence write bypassing fs::atomicWriteFile",
        # Patterns run on string-stripped code, so fopen's mode string
        # is invisible here; every raw fopen is flagged instead —
        # FILE* access belongs in common/fs, whatever the mode.
        "pattern": re.compile(r"std::ofstream\b|\bfopen\s*\("),
        "roots": ("src",),
        "exempt": ("src/common/fs.cpp",),
    },
    "QS003": {
        "summary": "detached thread (shutdown cannot prove quiescence)",
        "pattern": re.compile(r"\.\s*detach\s*\(\s*\)"),
        "roots": ("src", "tools", "tests", "bench"),
        "exempt": (),
    },
    "QS004": {
        "summary": "blocking sleep bypassing run::cancellableSleepMs",
        "pattern": re.compile(
            r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bnanosleep\s*\("
        ),
        "roots": ("src", "tools"),
        "exempt": ("src/common/deadline.cpp",),
    },
    "QS005": {
        "summary": "std::thread outside the common/parallel substrates",
        # std::thread:: (e.g. hardware_concurrency) is a namespace
        # query, not a thread birth; only the bare type is flagged.
        "pattern": re.compile(r"std::thread\b(?!::)"),
        "roots": ("src", "tools"),
        "exempt": ("src/common/parallel.hpp", "src/common/parallel.cpp"),
    },
    "QS007": {
        "summary": "raw fsync/rename outside common/fs.cpp",
        # renameFile( does not match (\brename requires the word to end
        # there); std::rename / ::rename / plain rename( all do.
        "pattern": re.compile(
            r"\bfsync\s*\(|\bfdatasync\s*\(|\brename\s*\("
        ),
        "roots": ("src", "tools"),
        "exempt": ("src/common/fs.cpp",),
    },
    "QE102": {
        "summary": "catch (...) outside the common/error.hpp firewall",
        "pattern": re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)"),
        "roots": ("src", "tools"),
        "exempt": ("src/common/error.hpp",),
    },
    "QE107": {
        "summary": "text-to-number call outside the common/text parser",
        "pattern": re.compile(
            r"\b(?:sto(?:i|l|ll|ul|ull|f|d|ld)"
            r"|ato(?:i|l|ll|f)"
            r"|strto(?:l|ll|ul|ull|d|f|ld|imax|umax))\s*\("
        ),
        "roots": ("src", "tools"),
        "exempt": ("src/common/text.cpp",),
    },
    "QE104": {
        "summary": "(void) cast silencing a [[nodiscard]] result",
        # A cast applied to an expression: `(void)expr`.  `f(void)`
        # parameter lists are followed by ')' and do not match.
        "pattern": re.compile(r"\(\s*void\s*\)\s*[A-Za-z_:(]"),
        "roots": ("src", "tools"),
        "exempt": (),
    },
}

# Rule ids implemented as dedicated scanners rather than RULES entries.
SCANNER_RULES = {
    "QE101": "empty catch body (exception swallowed)",
    "QE103": "throw inside a destructor or noexcept body",
    "QE105": "tool main() not wrapped in qaoa::toolMain()",
    "QE106": "failpoint name not registered exactly once",
    "QS006": "source file absent from the compilation database",
    "QS008": "library source outside the library's directory",
}

ALLOW_RE = re.compile(r"q[se]-allow\(\s*(Q[SE]\d{3})\s*\)")


def strip_code(text):
    """Returns (stripped_lines, allow_map).

    stripped_lines: source lines with comments, string literals and
    char literals blanked (newlines preserved so line numbers hold).
    allow_map: line number -> set of rule ids allowed on that line,
    collected from comments *before* they are blanked.
    """
    out = []
    allows = {}
    i = 0
    n = len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char
    comment_buf = []

    def note_allows(buf_text, at_line):
        for m in ALLOW_RE.finditer(buf_text):
            allows.setdefault(at_line, set()).add(m.group(1))

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings would need delimiter tracking; none of
                # the flagged tokens can appear outside code anyway,
                # and the repo style avoids raw literals.
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                # Anchor on the comment's *last* line so a multi-line
                # `// ...` run covers the statement right below it.
                note_allows("".join(comment_buf), line)
                state = "code"
                out.append("\n")
            else:
                comment_buf.append(c)
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                comment_buf.append("")
                note_allows("".join(comment_buf), line)
                state = "code"
                out.append("  ")
                i += 2
                if nxt == "\n":
                    line += 1
                continue
            comment_buf.append(c)
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                if nxt == "\n":
                    line += 1
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    if state == "line_comment":
        note_allows("".join(comment_buf), line)
    return "".join(out).split("\n"), allows


def iter_sources(roots, repo):
    for root in roots:
        base = os.path.join(repo, root)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.relpath(
                        os.path.join(dirpath, name), repo
                    ).replace(os.sep, "/")


ALL_ROOTS = ("bench", "src", "tests", "tools")


def build_cache(repo):
    """rel path -> (stripped_lines, allow_map) for every known source."""
    cache = {}
    for rel in iter_sources(ALL_ROOTS, repo):
        path = os.path.join(repo, rel)
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: cannot read {rel}: {e}", file=sys.stderr)
            sys.exit(2)
        cache[rel] = strip_code(text)
    return cache


def is_allowed(allows, rule_id, lineno):
    allowed = allows.get(lineno, set()) | allows.get(lineno - 1, set())
    return rule_id in allowed


def check_file_rules(cache, verbose, repo):
    violations = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        for rel in iter_sources(rule["roots"], repo):
            if rel in rule["exempt"]:
                continue
            lines, allows = cache[rel]
            for lineno, code in enumerate(lines, start=1):
                if not rule["pattern"].search(code):
                    continue
                if is_allowed(allows, rule_id, lineno):
                    if verbose:
                        print(f"  allowed {rule_id} {rel}:{lineno}")
                    continue
                violations.append(
                    (rule_id, rel, lineno, rule["summary"], code.strip())
                )
    return violations


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def body_span(text, open_brace):
    """Returns (start, end) of the brace body text[open_brace] opens,
    exclusive of the braces; end == len(text) when unbalanced."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace + 1, i
    return open_brace + 1, len(text)


# `catch (decl)` followed by a body that is blank after stripping.
EMPTY_CATCH_RE = re.compile(r"\bcatch\s*\([^)]*\)\s*\{\s*\}")

# A destructor definition head: `~T(` ... `)` [noexcept[(true)]]
# [override|final] `{`.  Works for both in-class and out-of-class
# definitions because stripping preserves whitespace/newlines.
DTOR_HEAD_RE = re.compile(
    r"~\w+\s*\(\s*\)\s*(?:noexcept\s*(?:\(\s*true\s*\))?\s*)?"
    r"(?:override\s*|final\s*)*\{"
)

# A noexcept specifier directly introducing a body.  `noexcept(expr)`
# conditional specifiers other than (true) deliberately do not match.
NOEXCEPT_HEAD_RE = re.compile(r"\bnoexcept\s*(?:\(\s*true\s*\))?\s*\{")

THROW_RE = re.compile(r"\bthrow\b")

MAIN_DEF_RE = re.compile(r"\bint\s+main\s*\(")
TOOLMAIN_CALL_RE = re.compile(r"\btoolMain\s*\(")


def check_empty_catches(cache, verbose, repo):
    """QE101: a catch body empty after comment-stripping swallows."""
    violations = []
    for rel in iter_sources(ALL_ROOTS, repo):
        lines, allows = cache[rel]
        text = "\n".join(lines)
        for m in EMPTY_CATCH_RE.finditer(text):
            lineno = line_of(text, m.start())
            # The waiver may sit on the catch line, the line above it,
            # or (the natural spot) as the body's only comment.
            last = line_of(text, m.end() - 1)
            waived = any(
                is_allowed(allows, "QE101", ln)
                for ln in range(lineno, last + 1)
            )
            if waived:
                if verbose:
                    print(f"  allowed QE101 {rel}:{lineno}")
                continue
            violations.append(
                (
                    "QE101",
                    rel,
                    lineno,
                    SCANNER_RULES["QE101"],
                    " ".join(m.group(0).split()),
                )
            )
    return violations


def check_noexcept_throws(cache, verbose, repo):
    """QE103: `throw` under a destructor or noexcept body terminates."""
    violations = []
    for rel in iter_sources(("src", "tools"), repo):
        lines, allows = cache[rel]
        text = "\n".join(lines)
        seen_bodies = set()
        heads = list(DTOR_HEAD_RE.finditer(text)) + list(
            NOEXCEPT_HEAD_RE.finditer(text)
        )
        for head in heads:
            open_brace = head.end() - 1
            if open_brace in seen_bodies:
                continue
            seen_bodies.add(open_brace)
            start, end = body_span(text, open_brace)
            for m in THROW_RE.finditer(text, start, end):
                lineno = line_of(text, m.start())
                if is_allowed(allows, "QE103", lineno):
                    if verbose:
                        print(f"  allowed QE103 {rel}:{lineno}")
                    continue
                violations.append(
                    (
                        "QE103",
                        rel,
                        lineno,
                        SCANNER_RULES["QE103"],
                        lines[lineno - 1].strip(),
                    )
                )
    return violations


def check_tool_mains(cache, verbose, repo):
    """QE105: every tools/ main() must delegate to qaoa::toolMain()."""
    violations = []
    for rel in iter_sources(("tools",), repo):
        if not rel.endswith((".cpp", ".cc")):
            continue
        lines, allows = cache[rel]
        text = "\n".join(lines)
        main_def = MAIN_DEF_RE.search(text)
        if main_def is None:
            continue
        if TOOLMAIN_CALL_RE.search(text):
            if verbose:
                print(f"  firewalled main {rel}")
            continue
        lineno = line_of(text, main_def.start())
        if is_allowed(allows, "QE105", lineno):
            if verbose:
                print(f"  allowed QE105 {rel}:{lineno}")
            continue
        violations.append(
            (
                "QE105",
                rel,
                lineno,
                SCANNER_RULES["QE105"],
                lines[lineno - 1].strip(),
            )
        )
    return violations


def strip_comments_keep_strings(text):
    """Blanks // and /* */ comments but PRESERVES string literals.

    The QE106 scanner matches failpoint names, which live inside string
    literals — the shared strip_code() blanks those, so this dedicated
    pass keeps them while still ignoring names that only appear in
    comments.  Newlines are preserved so line numbers hold.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string | char
            out.append(c)
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i + 1] if i + 1 < n else "")
                i += 2
                continue
            if c == quote:
                state = "code"
        i += 1
    return "".join(out)


FAILPOINT_IMPL = "src/common/failpoint.cpp"
CATALOGUE_RE = re.compile(r"kFailpointCatalogue\[\]\s*=\s*\{(.*?)\};", re.S)
CATALOGUE_NAME_RE = re.compile(r'"([^"]+)"')
POLL_RE = re.compile(r'failpoint::poll\(\s*"([^"]*)"')


def check_failpoint_registry(cache, verbose, repo):
    """QE106: poll sites <-> catalogue entries must be a bijection."""

    def read_keeping_strings(rel):
        path = os.path.join(repo, rel)
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                return strip_comments_keep_strings(fh.read())
        except OSError as e:
            print(f"error: cannot read {rel}: {e}", file=sys.stderr)
            sys.exit(2)

    summary = SCANNER_RULES["QE106"]
    sites = {}  # name -> [(rel, lineno), ...] in walk order
    for rel in iter_sources(("src", "tools"), repo):
        if rel == FAILPOINT_IMPL:
            continue  # The registry implementation, not a site.
        code = read_keeping_strings(rel)
        for m in POLL_RE.finditer(code):
            sites.setdefault(m.group(1), []).append(
                (rel, line_of(code, m.start()))
            )

    catalogue = []  # (name, lineno) in declaration order
    impl_rel = FAILPOINT_IMPL
    if os.path.isfile(os.path.join(repo, impl_rel)):
        code = read_keeping_strings(impl_rel)
        m = CATALOGUE_RE.search(code)
        if m is not None:
            for name_m in CATALOGUE_NAME_RE.finditer(m.group(1)):
                catalogue.append(
                    (
                        name_m.group(1),
                        line_of(code, m.start(1) + name_m.start()),
                    )
                )
    if not catalogue and not sites:
        return []  # Tree without failpoints: nothing to check.

    violations = []

    def waived(rel, lineno):
        allows = cache.get(rel, ([], {}))[1]
        ok = is_allowed(allows, "QE106", lineno)
        if ok and verbose:
            print(f"  allowed QE106 {rel}:{lineno}")
        return ok

    registered = {}
    for name, lineno in catalogue:
        if name in registered:
            if not waived(impl_rel, lineno):
                violations.append(
                    (
                        "QE106",
                        impl_rel,
                        lineno,
                        summary,
                        f'"{name}" registered more than once',
                    )
                )
        else:
            registered[name] = lineno

    for name in sorted(sites):
        where = sites[name]
        if name not in registered:
            for rel, lineno in where:
                if not waived(rel, lineno):
                    violations.append(
                        (
                            "QE106",
                            rel,
                            lineno,
                            summary,
                            f'poll of unregistered failpoint "{name}"',
                        )
                    )
            continue
        for rel, lineno in where[1:]:
            if not waived(rel, lineno):
                violations.append(
                    (
                        "QE106",
                        rel,
                        lineno,
                        summary,
                        f'failpoint "{name}" polled at more than one site',
                    )
                )

    for name, lineno in sorted(registered.items()):
        if name not in sites and not waived(impl_rel, lineno):
            violations.append(
                (
                    "QE106",
                    impl_rel,
                    lineno,
                    summary,
                    f'registered failpoint "{name}" has no poll site',
                )
            )
    return violations


LIBRARY_CMAKE = "src/CMakeLists.txt"
ADD_LIBRARY_RE = re.compile(r"\badd_library\(\s*qaoa_(\w+)(.*?)\)", re.S)
LIBRARY_KEYWORDS = {"STATIC", "SHARED", "OBJECT", "INTERFACE"}
# Libraries not named after their directory.
LIBRARY_DIRS = {"core": "qaoa"}


def check_library_dirs(verbose, repo):
    """QS008: qaoa_<x> compiles only sources under src/<x>/."""
    path = os.path.join(repo, LIBRARY_CMAKE)
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8", errors="replace") as fh:
        # Blank `#` comments so a path they mention is not a source.
        code = re.sub(r"#[^\n]*", "", fh.read())
    violations = []
    for block in ADD_LIBRARY_RE.finditer(code):
        home = LIBRARY_DIRS.get(block.group(1), block.group(1)) + "/"
        for src in re.finditer(r"\S+", block.group(2)):
            token = src.group(0)
            if token in LIBRARY_KEYWORDS or token.startswith(home):
                continue
            violations.append(
                (
                    "QS008",
                    LIBRARY_CMAKE,
                    line_of(code, block.start(2) + src.start()),
                    SCANNER_RULES["QS008"],
                    f"qaoa_{block.group(1)} compiles {token}",
                )
            )
        if verbose:
            print(f"  checked qaoa_{block.group(1)} sources")
    return violations


def check_compile_commands(db_path, verbose, repo):
    """QS006: every src/tools .cpp must be in the compilation database."""
    with open(db_path, encoding="utf-8") as fh:
        db = json.load(fh)
    compiled = set()
    for entry in db:
        f = entry.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(entry.get("directory", ""), f)
        compiled.add(os.path.normpath(f))
    violations = []
    for rel in iter_sources(("src", "tools"), repo):
        if not rel.endswith((".cpp", ".cc")):
            continue
        if os.path.normpath(os.path.join(repo, rel)) not in compiled:
            violations.append(
                (
                    "QS006",
                    rel,
                    1,
                    SCANNER_RULES["QS006"],
                    "",
                )
            )
        elif verbose:
            print(f"  compiled {rel}")
    return violations


def run_checks(repo, verbose=False, compile_commands=None):
    """Runs every rule rooted at @p repo; returns (violations, notes)."""
    cache = build_cache(repo)
    violations = check_file_rules(cache, verbose, repo)
    violations += check_empty_catches(cache, verbose, repo)
    violations += check_noexcept_throws(cache, verbose, repo)
    violations += check_tool_mains(cache, verbose, repo)
    violations += check_failpoint_registry(cache, verbose, repo)
    violations += check_library_dirs(verbose, repo)
    notes = []

    db_path = compile_commands
    if db_path is None:
        candidate = os.path.join(repo, "build", "compile_commands.json")
        db_path = candidate if os.path.isfile(candidate) else None
    if db_path is not None:
        if not os.path.isfile(db_path):
            print(f"error: no such file: {db_path}", file=sys.stderr)
            sys.exit(2)
        violations += check_compile_commands(db_path, verbose, repo)
    else:
        notes.append(
            "note: no compile_commands.json found; QS006 skipped "
            "(configure a build or pass --compile-commands)"
        )
    return violations, notes


def main():
    parser = argparse.ArgumentParser(
        description="QAOA project-invariant linter (QS00x / QE10x rules)"
    )
    parser.add_argument(
        "--compile-commands",
        metavar="PATH",
        help="compile_commands.json for QS006 "
        "(default: build/compile_commands.json when present)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=REPO,
        help="repository root to lint (default: this script's repo)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        catalogue = {
            rule_id: (rule["summary"], ", ".join(rule["roots"]))
            for rule_id, rule in RULES.items()
        }
        catalogue["QE101"] = (SCANNER_RULES["QE101"], ", ".join(ALL_ROOTS))
        catalogue["QE103"] = (SCANNER_RULES["QE103"], "src, tools")
        catalogue["QE105"] = (SCANNER_RULES["QE105"], "tools")
        catalogue["QE106"] = (SCANNER_RULES["QE106"], "src, tools")
        catalogue["QS006"] = (SCANNER_RULES["QS006"], "src, tools")
        catalogue["QS008"] = (SCANNER_RULES["QS008"], LIBRARY_CMAKE)
        for rule_id in sorted(catalogue):
            summary, scope = catalogue[rule_id]
            print(f"{rule_id}  {summary}  [scope: {scope}]")
        return 0

    repo = os.path.abspath(args.root)
    if not os.path.isdir(repo):
        print(f"error: no such directory: {repo}", file=sys.stderr)
        return 2

    violations, notes = run_checks(
        repo, verbose=args.verbose, compile_commands=args.compile_commands
    )
    for note in notes:
        print(note)

    if not violations:
        print("check_invariants: OK")
        return 0
    violations.sort()
    for rule_id, rel, lineno, summary, code in violations:
        loc = f"{rel}:{lineno}"
        print(f"{loc}: {rule_id}: {summary}")
        if code:
            print(f"    {code}")
    print(
        f"check_invariants: {len(violations)} violation(s); suppress a "
        "deliberate exception with a qs-allow(QS00x) / qe-allow(QE10x) "
        "comment explaining why (QS008 takes none: move the file)"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
