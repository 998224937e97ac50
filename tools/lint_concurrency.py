#!/usr/bin/env python3
"""Static concurrency lint: the program runs on one thread.

Every SEEP mechanism — checkpoints, trims, fences, routing, reconfiguration
plans, the TCP backend's sockets and the durable store's compaction — runs
on the thread that drives the simulation (DESIGN.md §8). Nothing in the tree
locks, because nothing else could hold a lock. One rule keeps it that way:

  * single-thread: no `.h`, `.cc` or `.cpp` file under src/, tests/, bench/
    or examples/ starts a thread (`std::thread`, `std::jthread`,
    `std::async`, `pthread_create`), uses a std lock type or condition
    variable, or includes <thread>, <mutex>, <condition_variable> or
    <shared_mutex>. A second thread would bring back the locks, the
    annotations and the race detector this rule made unnecessary; adding
    one should be a design decision, not a drift. `std::atomic` stays
    allowed: it starts nothing.

tests/store_test.cc's `/proc/self/task` test checks the same invariant at
run time.

Exit status: 0 when clean, 1 on any violation (CI fails), 2 on usage
errors. `--self-test` runs the rule against tests/lint_fixtures/concurrency/
and fails unless it fires on every fixture there.
"""

import argparse
import re
import sys
from pathlib import Path

import lint_common
from lint_common import strip_comments

# Directories scanned, relative to the repo root. Fixture trees are
# excluded: they exist to contain violations.
SCAN_DIRS = ("src", "tests", "bench", "examples")
SUFFIXES = (".h", ".cc", ".cpp")
EXCLUDE_PARTS = {"lint_fixtures"}

# A thread start (`std::thread` / `std::jthread` as a type, not a nested
# name such as std::thread::id), a std lock or condition variable, or one
# of their headers.
SINGLE_THREAD_RE = re.compile(
    r"\bstd::j?thread\b(?!\s*::)|\bstd::async\b|\bpthread_create\b"
    r"|\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
    r"|^\s*#include\s+<(thread|mutex|condition_variable|shared_mutex)>")


def scan_files(root, dirs):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            if EXCLUDE_PARTS & set(path.relative_to(root).parts):
                continue
            yield path


def check_single_thread(root, paths, violations):
    for path in paths:
        rel = path.relative_to(root)
        text = strip_comments(path.read_text(errors="replace"))
        for number, line in enumerate(text.splitlines(), start=1):
            match = SINGLE_THREAD_RE.search(line)
            if match:
                violations.append((
                    "single-thread", f"{rel}:{number}",
                    f"'{match.group(0).strip()}': the program runs on one "
                    "thread and takes no locks (DESIGN.md §8)"))


def self_test(repo_root):
    """Runs the rule against the fixture tree; every fixture must fire."""
    fixtures = repo_root / "tests" / "lint_fixtures" / "concurrency"
    if not fixtures.is_dir():
        print(f"lint_concurrency: fixture tree missing: {fixtures}",
              file=sys.stderr)
        return 1
    paths = sorted(p for p in fixtures.rglob("*") if p.suffix in SUFFIXES)
    violations = []
    check_single_thread(fixtures, paths, violations)
    fired = {where.split(":", 1)[0] for _, where, _ in violations}
    silent = [f"{p.relative_to(fixtures)} did not fire single-thread"
              for p in paths if str(p.relative_to(fixtures)) not in fired]
    if not paths:
        silent.append("no fixtures found")
    return lint_common.self_test_verdict(
        "lint_concurrency", {"single-thread"}, violations, silent)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rule fires on every fixture")
    args = parser.parse_args()

    repo_root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(repo_root)
    if not (repo_root / "src").is_dir():
        print(f"lint_concurrency: no src/ under {repo_root}",
              file=sys.stderr)
        return lint_common.EXIT_USAGE

    violations = []
    check_single_thread(repo_root, scan_files(repo_root, SCAN_DIRS),
                        violations)
    return lint_common.report(
        "lint_concurrency", violations,
        "clean (no thread, lock or condition variable in the tree)")


if __name__ == "__main__":
    sys.exit(main())
