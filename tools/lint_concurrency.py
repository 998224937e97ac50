#!/usr/bin/env python3
"""Static concurrency lint: the discipline src/common/sync.h exists to carry.

Clang Thread Safety Analysis (the SEEP_TSA build) proves lock discipline at
compile time, but only for code that goes through the annotated wrappers and
only when a clang toolchain is present. This lint enforces the parts that
keep the analysis sound on every toolchain:

  * no-raw-mutex: `std::mutex` / `std::condition_variable` / the std lock
    RAII types (and their headers) appear nowhere outside common/sync.h.
    A raw mutex is invisible to the analysis, to the holder bookkeeping,
    and to the lock-order manifest; every lock in the tree goes through
    sync::Mutex / sync::CondVar.
  * thread-outside-store: under src/, only the durable store's checkpoint
    log (src/store/checkpoint_log.*) may start a thread (`std::thread`,
    `std::jthread`, `pthread_create`): its background compactor is the one
    thread besides the simulation driver, which owns everything else, the
    TCP backend's sockets included. A new thread anywhere else is a new
    concurrency domain, and it should be a decision, not a drift.
  * unannotated-member: in the translation units two threads enter (the
    durable store's checkpoint log), every mutable data member is either
    SEEP_GUARDED_BY a mutex or a thread-role capability, or carries an
    explicit SEEP_UNGUARDED waiver. Immutable (`const`/`constexpr`),
    `std::atomic`, and the sync primitives themselves are exempt. An
    unannotated member in threaded code is a data race nobody has thought
    about yet.
  * waiver-needs-reason: every SEEP_UNGUARDED carries a non-empty written
    reason. A waiver without a reason is a suppression, not a decision.
  * lock-order: tools/lock_order.json lists every sync::Mutex in the tree
    and the held-while-acquiring edges between them; the lint fails when
    the manifest and the source disagree (a mutex added or removed without
    updating the manifest) or when the edge graph has a cycle (a lock-order
    cycle is a deadlock waiting for the right interleaving).

Exit status: 0 when clean, 1 on any violation (CI fails), 2 on usage
errors. `--self-test` runs the rules against
tests/lint_fixtures/concurrency/, which contains one violation of each
class, and fails unless every rule fires.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import lint_common
from lint_common import strip_comments

# Directories scanned for raw-mutex use and waiver hygiene, relative to the
# repo root. Fixture trees are excluded: they exist to contain violations.
SCAN_DIRS = ("src", "tests", "bench", "examples")
EXCLUDE_PARTS = {"lint_fixtures"}

# The one file allowed to touch the std synchronisation types: the wrapper.
RAW_MUTEX_ALLOWLIST = {Path("src/common/sync.h")}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|^\s*#include\s+<(mutex|condition_variable|shared_mutex)>")

# The only files under src/ that may start a thread: the durable store's
# checkpoint log, whose background compactor is the one thread besides the
# simulation driver.
THREAD_START_ALLOWLIST = {
    Path("src/store/checkpoint_log.h"),
    Path("src/store/checkpoint_log.cc"),
}

# A thread start: `std::thread` / `std::jthread` as a type (not a nested
# name such as std::thread::id), or the pthread call.
THREAD_START_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)|\bpthread_create\b")

# Translation units that spawn or are entered by more than one thread; every
# mutable member they declare must be annotated or explicitly waivered.
THREADED_TUS = (
    "src/store/checkpoint_log.h",
    "src/store/checkpoint_log.cc",
)

ANNOTATION_TOKENS = (
    "SEEP_GUARDED_BY", "SEEP_PT_GUARDED_BY", "SEEP_UNGUARDED",
)

# Only class bodies that visibly participate in threading are held to the
# annotation discipline: they declare a lock, a condition variable, a
# thread handle, or already carry capability annotations. Plain value
# structs (wire headers, configs, job descriptions) pass between threads
# by move and need no per-member story.
THREADING_MARKER_RE = re.compile(
    r"\bsync::Mutex\b|\bsync::CondVar\b|\bstd::thread\b"
    r"|SEEP_GUARDED_BY|SEEP_PT_GUARDED_BY|SEEP_UNGUARDED")

# A member declaration statement containing any of these needs no
# annotation: it is immutable, internally synchronised, or a primitive the
# annotations attach to.
MEMBER_EXEMPT_RE = re.compile(
    r"\bconst\b|\bconstexpr\b|\bstatic\b|\bstd::atomic\b|\bsync::Mutex\b"
    r"|\bsync::CondVar\b|\busing\b|\btypedef\b|\bfriend\b|\benum\b")

# The declared name of a member statement: trailing-underscore identifier
# (or a lone lowercase word for short struct members) right before the
# initializer / end of statement.
MEMBER_NAME_RE = re.compile(
    r"\b([A-Za-z]\w*)\s*(?:=[^=].*|\{[^}]*\})?\s*$")

WAIVER_RE = re.compile(r"SEEP_UNGUARDED\s*\(\s*(\"(?:[^\"\\]|\\.)*\")?\s*\)")

SYNC_MUTEX_DECL_RE = re.compile(
    r"\bsync::Mutex\s+(\w+)\s*(?:;|SEEP_)")


def scan_files(repo_root):
    for d in SCAN_DIRS:
        base = repo_root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if EXCLUDE_PARTS & set(path.parts):
                continue
            yield path


def check_raw_mutex(repo_root, violations):
    for path in scan_files(repo_root):
        rel = path.relative_to(repo_root)
        if rel in RAW_MUTEX_ALLOWLIST:
            continue
        text = strip_comments(path.read_text(errors="replace"))
        for number, line in enumerate(text.splitlines(), start=1):
            match = RAW_MUTEX_RE.search(line)
            if match:
                violations.append((
                    "no-raw-mutex", f"{rel}:{number}",
                    f"'{match.group(0).strip()}' bypasses common/sync.h; "
                    "raw std synchronisation is invisible to the thread "
                    "safety analysis and the lock-order manifest"))


def check_thread_starts(repo_root, violations, paths, allowlist):
    for path in paths:
        rel = path.relative_to(repo_root)
        if rel in allowlist:
            continue
        text = strip_comments(path.read_text(errors="replace"))
        for number, line in enumerate(text.splitlines(), start=1):
            match = THREAD_START_RE.search(line)
            if match:
                violations.append((
                    "thread-outside-store", f"{rel}:{number}",
                    f"'{match.group(0)}' starts a thread outside "
                    "src/store/checkpoint_log.*; everything else runs on "
                    "the simulation driver thread (DESIGN.md §8)"))


def src_files(repo_root):
    src = repo_root / "src"
    if not src.is_dir():
        return []
    return [p for p in sorted(src.rglob("*")) if p.suffix in (".h", ".cc")]


def class_regions(text):
    """Yields (start_line, [(line_number, statement), ...]) per class body.

    Statements are member-declaration-level only: content inside nested
    braces (method bodies, nested classes — which get their own region,
    default member initializer lists) is skipped.
    """
    head_re = re.compile(r"\b(?:struct|class)\s+\w[^;{()]*\{")
    lines = text.splitlines()
    flat = "\n".join(lines)
    for match in head_re.finditer(flat):
        open_pos = match.end() - 1
        depth = 0
        stmt, stmt_line = [], None
        line_no = flat.count("\n", 0, open_pos) + 1
        statements = []
        i = open_pos
        while i < len(flat):
            ch = flat[i]
            if ch == "{":
                depth += 1
                if depth > 1:
                    # Skip the nested brace region wholesale.
                    inner = 1
                    i += 1
                    while i < len(flat) and inner:
                        if flat[i] == "{":
                            inner += 1
                        elif flat[i] == "}":
                            inner -= 1
                        line_no += flat[i] == "\n"
                        i += 1
                    depth -= 1
                    continue
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
            elif ch == '"':
                j = i + 1
                while j < len(flat) and flat[j] != '"':
                    j += 2 if flat[j] == "\\" else 1
                if depth == 1:
                    if stmt_line is None:
                        stmt_line = line_no
                    stmt.append(flat[i:j + 1])
                line_no += flat.count("\n", i, j + 1)
                i = j + 1
                continue
            elif ch == "\n":
                line_no += 1
            elif ch == ";" and depth == 1:
                body = "".join(stmt).strip()
                if body:
                    statements.append((stmt_line or line_no, body))
                stmt, stmt_line = [], None
                i += 1
                continue
            if depth == 1 and ch not in "{}":
                if stmt_line is None and not ch.isspace():
                    stmt_line = line_no
                stmt.append(ch)
            i += 1
        yield statements


def looks_like_member(stmt):
    """True for data-member declarations, false for methods/labels/etc.

    Template argument lists are stripped first (so a std::function<...>
    member's parentheses don't read as a method signature), then the SEEP
    annotation macros; what still has a '(' before any initializer is a
    method declaration.
    """
    no_templates = re.sub(r"<[^<>]*(?:<[^<>]*>[^<>]*)*>", "", stmt)
    no_macros = re.sub(r"SEEP_\w+\s*\((?:[^()\"]|\"[^\"]*\")*\)", "",
                       no_templates)
    if "(" in no_macros.split("=")[0]:
        return False  # a method (or constructor) declaration
    if no_macros.rstrip().endswith(("public:", "private:", "protected:")):
        return False
    for kw in ("public:", "private:", "protected:"):
        if no_macros.strip().startswith(kw):
            no_macros = no_macros.strip()[len(kw):]
    head = no_macros.strip()
    if not head or head.startswith(("#", "template", "explicit", "virtual",
                                    "operator", "~", "return", "struct",
                                    "class")):
        return False
    # A declaration needs at least a type and a name.
    return len(head.replace("=", " ").split()) >= 2


def check_threaded_members(repo_root, violations, tus):
    for tu in tus:
        path = repo_root / tu
        if not path.is_file():
            violations.append((
                "unannotated-member", str(tu),
                "listed threaded TU does not exist; update THREADED_TUS"))
            continue
        text = strip_comments(path.read_text(errors="replace"))
        for statements in class_regions(text):
            if not any(THREADING_MARKER_RE.search(stmt)
                       for _, stmt in statements):
                continue
            for line_no, stmt in statements:
                if not looks_like_member(stmt):
                    continue
                if MEMBER_EXEMPT_RE.search(
                        re.sub(r"SEEP_\w+\s*\((?:[^()\"]|\"[^\"]*\")*\)",
                               "", stmt)):
                    continue
                if any(tok in stmt for tok in ANNOTATION_TOKENS):
                    continue
                name = MEMBER_NAME_RE.search(
                    re.sub(r"SEEP_\w+\s*\((?:[^()\"]|\"[^\"]*\")*\)", "",
                           stmt).rstrip())
                label = name.group(1) if name else stmt[:40]
                violations.append((
                    "unannotated-member", f"{tu}:{line_no}",
                    f"member '{label}' in a thread-spawning TU has no "
                    "SEEP_GUARDED_BY and no SEEP_UNGUARDED waiver"))


def check_waiver_reasons(repo_root, violations):
    for path in scan_files(repo_root):
        rel = path.relative_to(repo_root)
        text = path.read_text(errors="replace")
        # Work on the raw text: the reasons live inside string literals.
        for number, line_block in enumerate(text.splitlines(), start=1):
            for match in WAIVER_RE.finditer(line_block):
                literal = match.group(1)
                if literal is None or len(literal) <= 2:
                    violations.append((
                        "waiver-needs-reason", f"{rel}:{number}",
                        "SEEP_UNGUARDED without a written reason is a "
                        "suppression, not a decision; say why the member "
                        "needs no guard"))


def check_lock_order(repo_root, manifest_path, violations):
    rel_manifest = manifest_path.relative_to(repo_root)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        violations.append(("lock-order-manifest", str(rel_manifest),
                           f"cannot read manifest: {err}"))
        return
    mutexes = manifest.get("mutexes", {})
    edges = manifest.get("edges", [])

    # Manifest -> source: every listed mutex must still be declared there.
    declared = {}
    for name, rel in mutexes.items():
        path = repo_root / rel
        member = name.rsplit("::", 1)[-1]
        text = strip_comments(path.read_text(errors="replace")) \
            if path.is_file() else ""
        found = any(m.group(1) == member
                    for m in SYNC_MUTEX_DECL_RE.finditer(text))
        if not found:
            violations.append((
                "lock-order-stale-mutex", f"{rel_manifest}: {name}",
                f"manifest lists '{name}' but {rel} declares no "
                f"'sync::Mutex {member}'"))
        declared[name] = rel

    # Source -> manifest: every sync::Mutex in src/ must be listed.
    listed_by_file = {}
    for name, rel in mutexes.items():
        listed_by_file.setdefault(rel, set()).add(name.rsplit("::", 1)[-1])
    for path in src_files(repo_root):
        if path.relative_to(repo_root) in RAW_MUTEX_ALLOWLIST:
            continue
        rel = str(path.relative_to(repo_root))
        text = strip_comments(path.read_text(errors="replace"))
        for match in SYNC_MUTEX_DECL_RE.finditer(text):
            if match.group(1) not in listed_by_file.get(rel, set()):
                number = text.count("\n", 0, match.start()) + 1
                violations.append((
                    "lock-order-unlisted-mutex", f"{rel}:{number}",
                    f"sync::Mutex '{match.group(1)}' is not in "
                    f"{rel_manifest}; add it (and its held-while-"
                    "acquiring edges, if any)"))

    # Edge endpoints must be listed mutexes.
    graph = {name: [] for name in mutexes}
    for edge in edges:
        src_m, dst_m = edge.get("from"), edge.get("to")
        for endpoint in (src_m, dst_m):
            if endpoint not in mutexes:
                violations.append((
                    "lock-order-unknown-edge", str(rel_manifest),
                    f"edge {src_m!r} -> {dst_m!r} references a mutex not "
                    "listed under 'mutexes'"))
                break
        else:
            graph[src_m].append(dst_m)

    # Cycle detection: iterative DFS, three colours.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in graph}
    for root in graph:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(graph[root]))]
        colour[root] = GREY
        path_stack = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour[nxt] == GREY:
                    cycle = path_stack[path_stack.index(nxt):] + [nxt]
                    violations.append((
                        "lock-order-cycle", str(rel_manifest),
                        "lock-order cycle (a deadlock waiting for the "
                        "right interleaving): " + " -> ".join(cycle)))
                elif colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(graph[nxt])))
                    path_stack.append(nxt)
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
                path_stack.pop()


def lint(repo_root, manifest_path, tus):
    violations = []
    check_raw_mutex(repo_root, violations)
    check_thread_starts(repo_root, violations, src_files(repo_root),
                        THREAD_START_ALLOWLIST)
    check_threaded_members(repo_root, violations, tus)
    check_waiver_reasons(repo_root, violations)
    check_lock_order(repo_root, manifest_path, violations)
    return violations


def self_test(repo_root):
    """Runs the rules against the fixture tree; every class must fire."""
    fixtures = repo_root / "tests" / "lint_fixtures" / "concurrency"
    if not fixtures.is_dir():
        print(f"lint_concurrency: fixture tree missing: {fixtures}",
              file=sys.stderr)
        return 1
    violations = []

    # The fixture tree is scanned directly: every file in it is treated as
    # a thread-spawning TU, and its own (deliberately broken) manifest is
    # used for the lock-order check.
    def fixture_files():
        return sorted(p for p in fixtures.rglob("*")
                      if p.suffix in (".h", ".cc"))

    for path in fixture_files():
        rel = path.relative_to(fixtures)
        text = strip_comments(path.read_text(errors="replace"))
        for number, line in enumerate(text.splitlines(), start=1):
            match = RAW_MUTEX_RE.search(line)
            if match:
                violations.append(("no-raw-mutex", f"{rel}:{number}", ""))
        raw = path.read_text(errors="replace")
        for number, line in enumerate(raw.splitlines(), start=1):
            for match in WAIVER_RE.finditer(line):
                literal = match.group(1)
                if literal is None or len(literal) <= 2:
                    violations.append(
                        ("waiver-needs-reason", f"{rel}:{number}", ""))
    check_thread_starts(fixtures, violations, fixture_files(), set())
    check_threaded_members(
        fixtures, violations,
        tuple(str(p.relative_to(fixtures)) for p in fixture_files()))
    check_lock_order(fixtures, fixtures / "lock_order_cycle.json",
                     violations)

    expected = {"no-raw-mutex", "thread-outside-store", "unannotated-member",
                "waiver-needs-reason", "lock-order-cycle",
                "lock-order-stale-mutex"}
    return lint_common.self_test_verdict(
        "lint_concurrency", expected, violations)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on the fixtures")
    args = parser.parse_args()

    repo_root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(repo_root)
    if not (repo_root / "src").is_dir():
        print(f"lint_concurrency: no src/ under {repo_root}",
              file=sys.stderr)
        return lint_common.EXIT_USAGE

    violations = lint(repo_root, repo_root / "tools" / "lock_order.json",
                      THREADED_TUS)
    return lint_common.report(
        "lint_concurrency", violations,
        "clean (no raw mutexes, threads only in the store, threaded "
        "members annotated, waivers reasoned, lock order acyclic)")


if __name__ == "__main__":
    sys.exit(main())
