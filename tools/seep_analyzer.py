#!/usr/bin/env python3
"""seep_analyzer: semantic lint over a real token-level parse of src/.

The existing lints see include graphs (lint_layers) and member
declarations (lint_concurrency); neither can see *calls*, *switches* or
*discarded values*. This analyzer builds a registry of function
declarations, enum definitions and call sites from a C++ tokenizer with
full comment/string/preprocessor handling, then enforces four semantic
rules the exactly-once protocol depends on:

  * unchecked-status: a discarded call to a function returning
    seep::Status / Result<T> (or a must-check transport enum such as
    net::SendStatus) is an error — a swallowed Status on a checkpoint
    append, a decode or a reconfiguration stage silently converts
    "recover and retry" into "lose the window". Three shapes are
    caught: bare expression statements `Append(...);`, explicit
    `(void)` casts, and `Status st = ...;` locals never read again in
    the enclosing function.
  * nodiscard-coverage: every function declared to return Status or
    Result<T> must carry [[nodiscard]], so the *compiler* enforces the
    same discipline in every TU (including tests and benches this tool
    does not scan). Out-of-line definitions whose declaration is
    annotated are exempt. `--fix` inserts the missing attributes.
  * enum-switch-exhaustiveness: a switch over a wire/protocol enum
    (MessageType, StatusCode, SendStatus, SendPressure, StageKind,
    RecordType, FsyncPolicy) must name every enumerator, and any
    `default:` must be loud (SEEP_CHECK / SEEP_LOG / abort / an error
    Status return) — a silently-swallowing default turns a new wire
    message kind into dropped data.
  * choke-point: protocol-map mutations happen only through their choke
    points. Replaces lint_layers' old regex approximation with
    call-site detection that is blind to comments and strings and can
    check the receiver: DeployInstance / InstallRoutes only from the
    reconfiguration plane and initial deployment, backup-map deletion
    only through Cluster::DeleteBackup.

Waivers: a line (or the line below a comment-only line) is waived with
`// seep-ok: <rule> -- <non-empty reason>`. A waiver without a reason
or naming an unknown rule is itself a violation (waiver-needs-reason),
the same policy as SEEP_UNGUARDED.

Per-TU cache: analysis verdicts are cached under --cache-dir keyed by
the file's content hash plus an environment hash covering the merged
declaration registry, the rule configuration and the analyzer source.
Editing any header changes the registry fingerprint, so every dependent
TU is re-analyzed; editing one .cc re-analyzes only that file.

Frontends: the built-in tokenizer frontend above is self-contained and
authoritative (it runs on any toolchain, including the gcc-only CI
image). When a clang toolchain and an exported compile_commands.json
are present, `--clang-verify` additionally replays every src/ TU
through `clang++ -fsyntax-only -Wunused-result`, cross-checking the
unchecked-status rule against clang's own AST/sema (the [[nodiscard]]
sweep makes every discard a clang diagnostic). Without clang the
cross-check degrades to a notice, never a failure.

Exit status: 0 when clean, 1 on any violation (CI fails), 2 on usage
errors. `--self-test` runs every rule against
tests/lint_fixtures/analyzer/ (positive fixtures must fire, the
negative tree must stay clean) and exercises cache invalidation.
"""

import argparse
import hashlib
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import lint_common

ANALYZER_VERSION = "1"

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

# Return types whose values must always be inspected. "Result" means the
# class template Result<...>; the enums are the transport's must-act
# signals (dropping a SendStatus loses a frame silently).
WATCHED_CLASS_RETURNS = {"Status", "Result"}
WATCHED_ENUM_RETURNS = {"SendStatus", "SendPressure"}

# Wire/protocol enums whose switches must be exhaustive. A new
# enumerator added to one of these is a protocol change; every consumer
# must be forced to decide what it does with it.
PROTOCOL_ENUMS = {
    "MessageType", "StatusCode", "SendStatus", "SendPressure",
    "StageKind", "RecordType", "FsyncPolicy",
}

# A default: branch is "loud" when its statements contain one of these
# (an abort, a log line, or an error return) — it may guard corrupt
# wire values, but it may not swallow a known enumerator silently.
LOUD_DEFAULT_TOKENS = (
    "SEEP_CHECK", "SEEP_CHECK_EQ", "SEEP_CHECK_NE", "SEEP_CHECK_LT",
    "SEEP_CHECK_LE", "SEEP_CHECK_GT", "SEEP_CHECK_GE", "SEEP_LOG",
    "abort", "Unreachable", "throw",
)
LOUD_STATUS_FACTORIES = (
    "InvalidArgument", "NotFound", "AlreadyExists", "FailedPrecondition",
    "ResourceExhausted", "Unavailable", "Corruption", "Internal", "Aborted",
)

# Cluster-mutating methods reserved for their choke points. `allowed`
# lists the files (relative to the scan root) that may *call* the
# method — the declaring/defining files plus the sanctioned callers.
# `receivers` (optional) restricts matches to calls whose receiver
# identifier is listed, so a generic name like Delete only matches the
# backup map.
CHOKE_POINTS = (
    {
        "method": "DeployInstance",
        "allowed": {
            "runtime/membership.h", "runtime/membership.cc",
            "control/deployment_manager.cc", "control/reconfig_plan.cc",
        },
        "why": "instances are deployed only by ReconfigPlan stages (or "
               "the initial deployment); a direct deploy dodges the "
               "plan's compensations and the no-leaked-vm invariant",
    },
    {
        "method": "InstallRoutes",
        "allowed": {
            "runtime/cluster.h", "runtime/cluster.cc",
            "control/deployment_manager.cc", "control/reconfig_plan.cc",
        },
        "why": "routes are installed only by ReconfigPlan stages (or the "
               "initial deployment); a direct reroute dodges the "
               "routes-restored-on-abort invariant and the route-tiling "
               "audit hook",
    },
    {
        "method": "DeleteBackup",
        "allowed": {
            "runtime/cluster.h", "runtime/cluster.cc",
            "runtime/membership.cc",
        },
        "why": "backup-map deletion goes through the Cluster::DeleteBackup "
               "choke point (memory entry + durable tombstone move "
               "together)",
    },
    {
        "method": "Delete",
        "receivers": {"backups", "backups_"},
        "allowed": {"runtime/cluster.cc"},
        "why": "BackupStore::Delete outside Cluster::DeleteBackup bypasses "
               "the one choke point every backup deletion goes through",
    },
)

RULE_NAMES = (
    "unchecked-status", "nodiscard-coverage",
    "enum-switch-exhaustiveness", "choke-point", "waiver-needs-reason",
)

# Keywords that can never head a declaration's type or appear inside a
# discarded-call receiver chain.
CPP_KEYWORDS = {
    "alignas", "alignof", "auto", "break", "case", "catch", "class",
    "co_await", "co_return", "co_yield", "const_cast", "continue",
    "decltype", "default", "delete", "do", "dynamic_cast", "else",
    "enum", "explicit", "export", "extern", "for", "friend", "goto",
    "if", "namespace", "new", "noexcept", "operator", "private",
    "protected", "public", "register", "reinterpret_cast", "return",
    "sizeof", "static_assert", "static_cast", "struct", "switch",
    "template", "this", "throw", "try", "typedef", "typeid",
    "typename", "union", "using", "while",
}

DECL_SPECIFIERS = {"static", "virtual", "inline", "constexpr", "explicit",
                   "friend", "extern"}

WAIVER_RE = re.compile(
    r"//\s*seep-ok:\s*([A-Za-z-]*)\s*(?:--\s*(.*))?$")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "id", "num", "str", "chr", "punct"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")


def tokenize(text):
    """Lexes C++ into tokens with line/column info.

    Comments and preprocessor directives are skipped (waivers are
    extracted from raw text separately); strings and char literals
    become single tokens so their contents can never match a rule.
    """
    toks = []
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(j):
        nonlocal line, col, i
        seg = text[i:j]
        nl = seg.count("\n")
        if nl:
            line += nl
            col = j - seg.rfind("\n") - i
        else:
            col += j - i
        i = j

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(i + 1)
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            advance(n if j < 0 else j)
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            advance(n if j < 0 else j + 2)
            continue
        if ch == "#" and (not toks or toks[-1].line != line):
            # Preprocessor directive: skip to end of line, honouring
            # backslash continuations.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\" or (text[k - 1] == "\r" and
                                           text[k - 2] == "\\"):
                    j = k + 1
                    continue
                j = k
                break
            advance(j)
            continue
        if ch == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j < 0 else j + len(close)
                toks.append(Token("str", text[i:j], line, col))
                advance(j)
                continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Token("str", text[i:j], line, col))
            advance(j)
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Token("chr", text[i:j], line, col))
            advance(j)
            continue
        if ch in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Token("id", text[i:j], line, col))
            advance(j)
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'"):
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            advance(j)
            continue
        if text.startswith("::", i) or text.startswith("->", i):
            toks.append(Token("punct", text[i:i + 2], line, col))
            advance(i + 2)
            continue
        toks.append(Token("punct", ch, line, col))
        advance(i + 1)
    return toks


def match_forward(toks, i, open_ch, close_ch):
    """Index just past the bracket pair opening at toks[i], or None."""
    assert toks[i].text == open_ch
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    return None


# ---------------------------------------------------------------------------
# Declaration extraction (the registry)
# ---------------------------------------------------------------------------

class Decl:
    """A function or watched-variable declaration found in a file."""

    __slots__ = ("kind", "name", "qualified", "ret", "nodiscard", "file",
                 "line", "insert_at", "is_definition", "decl_end")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))


def parse_qualified_id(toks, i):
    """Parses `id (:: id)*`; returns (next_index, [components]) or None."""
    if i >= len(toks) or toks[i].kind != "id" or \
            toks[i].text in CPP_KEYWORDS:
        return None
    parts = [toks[i].text]
    i += 1
    while i + 1 < len(toks) and toks[i].text == "::" and \
            toks[i + 1].kind == "id" and \
            toks[i + 1].text not in CPP_KEYWORDS:
        parts.append(toks[i + 1].text)
        i += 2
    return i, parts


def parse_type(toks, i):
    """Parses a type: qualified-id, template args, cv, ptr/ref.

    Returns (next_index, last_component, has_template, by_value) or
    None. `by_value` is false for pointer/reference returns.
    """
    while i < len(toks) and toks[i].text in ("const", "volatile",
                                             "unsigned", "signed"):
        i += 1
    got = parse_qualified_id(toks, i)
    if got is None:
        return None
    i, parts = got
    has_template = False
    if i < len(toks) and toks[i].text == "<":
        depth = 0
        j = i
        while j < len(toks):
            t = toks[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    break
            elif t in (";", "{", "}"):
                return None  # stray comparison, not a template
            j += 1
        else:
            return None
        i = j + 1
        has_template = True
    by_value = True
    while i < len(toks) and toks[i].text in ("const", "*", "&", "&&"):
        if toks[i].text in ("*", "&", "&&"):
            by_value = False
        i += 1
    return i, parts[-1], has_template, by_value


def classify_return(last, has_template, by_value):
    if not by_value:
        return "other"
    if last == "Status" and not has_template:
        return "Status"
    if last == "Result" and has_template:
        return "Result"
    if last in WATCHED_ENUM_RETURNS and not has_template:
        return last
    return "other"


def extract_decls(toks):
    """Scans a token stream for declarations; returns (decls, fn_spans).

    `fn_spans` are (start_index, end_index) token ranges of function
    *bodies*, used to scope the assigned-never-read check to locals.
    """
    decls = []
    fn_spans = []
    n = len(toks)
    i = 0
    while i < n:
        prev = toks[i - 1].text if i > 0 else None
        # ">" admits `template <...> Status Foo(...)` declarations.
        if prev not in (None, ";", "{", "}", ":", ">"):
            i += 1
            continue
        start = i
        j = i
        nodiscard = False
        # Leading attributes: [[...]]
        while j + 1 < n and toks[j].text == "[" and \
                toks[j + 1].text == "[":
            end = match_forward(toks, j, "[", "]")
            if end is None:
                break
            if any(t.text == "nodiscard" for t in toks[j:end]):
                nodiscard = True
            j = end
        while j < n and toks[j].text in DECL_SPECIFIERS:
            j += 1
        got = parse_type(toks, j)
        if got is None:
            i += 1
            continue
        j, last, has_template, by_value = got
        ret = classify_return(last, has_template, by_value)
        name = parse_qualified_id(toks, j)
        if name is None:
            i += 1
            continue
        j, parts = name
        if j >= n:
            break
        nxt = toks[j].text
        if nxt == "(":
            close = match_forward(toks, j, "(", ")")
            if close is None:
                i += 1
                continue
            # Suffix: const/override/noexcept/macros, up to ; { or =.
            k = close
            while k < n and toks[k].text not in (";", "{", "=", ":"):
                if toks[k].text == "(":
                    k = match_forward(toks, k, "(", ")") or n
                else:
                    k += 1
            if k >= n or toks[k].text == ":":
                i = j + 1
                continue
            is_definition = toks[k].text == "{"
            decls.append(Decl(
                kind="fn", name=parts[-1], qualified=len(parts) > 1,
                ret=ret, nodiscard=nodiscard, line=toks[start].line,
                insert_at=(toks[start].line, toks[start].col),
                is_definition=is_definition, decl_end=k))
            if is_definition:
                body_end = match_forward(toks, k, "{", "}")
                if body_end is not None:
                    fn_spans.append((k, body_end))
                    i = k + 1
                    continue
            i = k + 1
            continue
        if nxt in ("=", ";", "{") and ret in ("Status", "Result") and \
                len(parts) == 1:
            decls.append(Decl(
                kind="var", name=parts[-1], qualified=False, ret=ret,
                nodiscard=nodiscard, line=toks[j - 1].line,
                insert_at=None, is_definition=False, decl_end=j))
        i = j + 1
    return decls, fn_spans


def extract_enums(toks):
    """Returns {enum_name: [enumerators]} for every enum definition."""
    enums = {}
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text != "enum":
            i += 1
            continue
        j = i + 1
        if j < n and toks[j].text in ("class", "struct"):
            j += 1
        if j >= n or toks[j].kind != "id":
            i += 1
            continue
        name = toks[j].text
        j += 1
        if j < n and toks[j].text == ":":  # underlying type
            j += 1
            got = parse_qualified_id(toks, j)
            if got is None:
                i += 1
                continue
            j, _ = got
        if j >= n or toks[j].text != "{":
            i = j
            continue
        end = match_forward(toks, j, "{", "}")
        if end is None:
            break
        enumerators = []
        depth = 0
        expect_name = True
        for t in toks[j:end]:
            if t.text in ("{", "(", "["):
                depth += 1
            elif t.text in ("}", ")", "]"):
                depth -= 1
            elif depth == 1 and t.text == ",":
                expect_name = True
            elif depth == 1 and expect_name and t.kind == "id":
                enumerators.append(t.text)
                expect_name = False
        enums[name] = enumerators
        i = end
    return enums


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

def extract_waivers(text, rel, violations):
    """Returns {line_number: rule} for well-formed waivers.

    Comment-only waiver lines also waive the following line. Malformed
    waivers (no reason, unknown rule) are reported as
    waiver-needs-reason violations.
    """
    waived = {}
    for number, line in enumerate(text.splitlines(), start=1):
        m = WAIVER_RE.search(line)
        if m is None:
            continue
        rule, reason = m.group(1), (m.group(2) or "").strip()
        if rule not in RULE_NAMES:
            violations.append((
                "waiver-needs-reason", f"{rel}:{number}",
                f"waiver names unknown rule '{rule}' (known: "
                f"{', '.join(RULE_NAMES[:-1])})"))
            continue
        if not reason:
            violations.append((
                "waiver-needs-reason", f"{rel}:{number}",
                "seep-ok without a written reason is a suppression, not "
                "a decision; say why this discard/shape is safe"))
            continue
        waived[number] = rule
        if line.lstrip().startswith("//"):
            waived[number + 1] = rule
    return waived


def is_waived(waived, rule, line):
    return waived.get(line) == rule


# ---------------------------------------------------------------------------
# Rule: unchecked-status
# ---------------------------------------------------------------------------

def receiver_chain_ok(toks, start, call_idx):
    """True when toks[start:call_idx] is a pure receiver chain.

    A discarded statement call looks like `a->b().c(...)` — only
    identifiers, ::, ., ->, and balanced parens may precede the call
    for the statement to be a plain discard.
    """
    depth = 0
    for t in toks[start:call_idx]:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth < 0:
                return False
        elif t.kind == "id":
            if t.text in CPP_KEYWORDS:
                return False
        elif t.text in ("::", ".", "->", "*"):
            continue
        else:
            return False
    return depth == 0


def check_unchecked_calls(toks, rel, must_check, waived, violations):
    """Bare-statement and (void)-cast discards of must-check calls."""
    stmt_start = 0
    n = len(toks)
    for i in range(n):
        t = toks[i]
        if t.text in (";", "{", "}"):
            stmt_start = i + 1
            continue
        if t.kind != "id" or t.text not in must_check:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = match_forward(toks, i + 1, "(", ")")
        if close is None or close >= n or toks[close].text != ";":
            continue
        start = stmt_start
        void_cast = (start + 2 < n and toks[start].text == "(" and
                     toks[start + 1].text == "void" and
                     toks[start + 2].text == ")")
        if void_cast:
            start += 3
        # The callee must open the statement or follow a member/scope
        # access — anything else (e.g. a type name) is a declaration or
        # an expression whose value is not discarded.
        if i != start and toks[i - 1].text not in (".", "->", "::"):
            continue
        if not receiver_chain_ok(toks, start, i):
            continue
        if is_waived(waived, "unchecked-status", t.line):
            continue
        how = "explicitly void-casts away" if void_cast else "discards"
        violations.append((
            "unchecked-status", f"{rel}:{t.line}",
            f"{how} the result of '{t.text}(...)', which returns "
            f"{must_check[t.text]}; inspect it, propagate it with "
            "SEEP_RETURN_IF_ERROR, or waive the line with "
            "`// seep-ok: unchecked-status -- <reason>`"))


def check_unread_status_locals(toks, rel, decls, fn_spans, waived,
                               violations):
    """`Status st = ...;` locals never mentioned again in the function."""
    # Token index per declaration line for scope lookup.
    for d in decls:
        if d.kind != "var" or d.ret not in ("Status", "Result"):
            continue
        span = None
        for s, e in fn_spans:
            if toks[s].line <= d.line and (span is None or s > span[0]):
                if toks[e - 1].line >= d.line:
                    span = (s, e)
        if span is None:
            continue  # a member or global, not a local
        # Find the token of the declared name inside the span.
        idx = None
        for j in range(span[0], span[1]):
            if toks[j].line == d.line and toks[j].kind == "id" and \
                    toks[j].text == d.name:
                idx = j
                break
        if idx is None:
            continue
        used = any(toks[j].kind == "id" and toks[j].text == d.name
                   for j in range(idx + 1, span[1]))
        if used:
            continue
        if is_waived(waived, "unchecked-status", d.line):
            continue
        violations.append((
            "unchecked-status", f"{rel}:{d.line}",
            f"local '{d.name}' holds a {d.ret} that is never inspected "
            "afterwards; a swallowed error here silently degrades "
            "recovery semantics"))


# ---------------------------------------------------------------------------
# Rule: nodiscard-coverage
# ---------------------------------------------------------------------------

def check_nodiscard(rel, decls, marked_names, waived, violations,
                    fixes=None):
    for d in decls:
        if d.kind != "fn" or d.ret not in ("Status", "Result"):
            continue
        if d.nodiscard:
            continue
        if d.qualified and d.name in marked_names:
            continue  # out-of-line definition; declaration is annotated
        if is_waived(waived, "nodiscard-coverage", d.line):
            continue
        violations.append((
            "nodiscard-coverage", f"{rel}:{d.line}",
            f"'{d.name}' returns {d.ret} but is not [[nodiscard]]; the "
            "compiler cannot flag swallowed errors at its call sites "
            "(run with --fix to insert the attribute)"))
        if fixes is not None and d.insert_at is not None:
            fixes.setdefault(rel, []).append(d.insert_at)


def apply_nodiscard_fixes(root, fixes):
    """Inserts `[[nodiscard]] ` at each recorded (line, col) position."""
    edited = 0
    for rel, positions in fixes.items():
        path = root / rel
        lines = path.read_text().splitlines(keepends=True)
        for line, col in sorted(positions, reverse=True):
            s = lines[line - 1]
            lines[line - 1] = s[:col - 1] + "[[nodiscard]] " + s[col - 1:]
            edited += 1
        path.write_text("".join(lines))
    return edited


# ---------------------------------------------------------------------------
# Rule: enum-switch-exhaustiveness
# ---------------------------------------------------------------------------

def check_enum_switches(toks, rel, enums, waived, violations):
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text != "switch" or toks[i].kind != "id":
            i += 1
            continue
        line = toks[i].line
        j = i + 1
        if j >= n or toks[j].text != "(":
            i += 1
            continue
        cond_end = match_forward(toks, j, "(", ")")
        if cond_end is None or cond_end >= n or \
                toks[cond_end].text != "{":
            i += 1
            continue
        body_end = match_forward(toks, cond_end, "{", "}")
        if body_end is None:
            break
        covered = {}  # enum name -> set of enumerators
        label_spans = []  # (start_of_statements, is_default)
        depth = 0
        k = cond_end
        while k < body_end:
            t = toks[k].text
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
            elif depth == 1 and t == "case":
                # Parse `case Qual::Name:` — qualified enum labels only.
                got = parse_qualified_id(toks, k + 1)
                if got is not None:
                    end, parts = got
                    if len(parts) >= 2 and end < n and \
                            toks[end].text == ":":
                        covered.setdefault(parts[-2],
                                           set()).add(parts[-1])
                        label_spans.append((end + 1, False))
            elif depth == 1 and t == "default" and k + 1 < n and \
                    toks[k + 1].text == ":":
                label_spans.append((k + 2, True))
            k += 1
        target = None
        for enum_name in covered:
            if enum_name in PROTOCOL_ENUMS and enum_name in enums:
                target = enum_name
                break
        if target is None:
            i = body_end
            continue
        missing = sorted(set(enums[target]) - covered[target])
        waived_here = is_waived(waived, "enum-switch-exhaustiveness",
                                line)
        if missing and not waived_here:
            violations.append((
                "enum-switch-exhaustiveness", f"{rel}:{line}",
                f"switch over protocol enum '{target}' does not handle "
                f"{', '.join(missing)}; every enumerator must be named "
                "so a protocol change forces a decision here"))
        for span_start, is_default in label_spans:
            if not is_default:
                continue
            # The default's statements run to the next label at depth 1
            # or the end of the switch body.
            stmts = []
            depth = 1
            k = span_start
            while k < body_end:
                t = toks[k].text
                if t == "{":
                    depth += 1
                elif t == "}":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth == 1 and t in ("case", "default"):
                    break
                stmts.append(toks[k])
                k += 1
            loud = any(
                t.kind == "id" and (t.text in LOUD_DEFAULT_TOKENS or
                                    t.text in LOUD_STATUS_FACTORIES)
                for t in stmts)
            if not loud and not waived_here:
                violations.append((
                    "enum-switch-exhaustiveness", f"{rel}:{line}",
                    f"switch over protocol enum '{target}' has a "
                    "silently-swallowing default:; make it loud "
                    "(SEEP_CHECK / SEEP_LOG / abort / error Status) or "
                    "handle every enumerator explicitly"))
        i = body_end
    return


# ---------------------------------------------------------------------------
# Rule: choke-point
# ---------------------------------------------------------------------------

def call_receiver(toks, i):
    """Identifier of the receiver for the call at toks[i], if any.

    `x->M(`, `x.M(` and `x()->M(` resolve to "x"; a plain `M(` has no
    receiver and returns None.
    """
    j = i - 1
    if j < 0 or toks[j].text not in (".", "->"):
        return None
    j -= 1
    if j >= 1 and toks[j].text == ")" :
        # Skip a call's parens: `x()->M(` — receiver is the callee.
        depth = 0
        while j >= 0:
            if toks[j].text == ")":
                depth += 1
            elif toks[j].text == "(":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
    if j >= 0 and toks[j].kind == "id":
        return toks[j].text
    return None


def check_choke_points(toks, rel, waived, violations):
    n = len(toks)
    for entry in CHOKE_POINTS:
        if rel in entry["allowed"]:
            continue
        method = entry["method"]
        for i in range(n):
            t = toks[i]
            if t.kind != "id" or t.text != method:
                continue
            if i + 1 >= n or toks[i + 1].text != "(":
                continue
            receivers = entry.get("receivers")
            if receivers is not None and \
                    call_receiver(toks, i) not in receivers:
                continue
            if is_waived(waived, "choke-point", t.line):
                continue
            violations.append((
                "choke-point", f"{rel}:{t.line}",
                f"call to '{method}' outside its choke point "
                f"({', '.join(sorted(entry['allowed']))}): "
                f"{entry['why']}"))


# ---------------------------------------------------------------------------
# Analysis driver + cache
# ---------------------------------------------------------------------------

def scan_files(scan_root):
    return [p for p in sorted(scan_root.rglob("*"))
            if p.suffix in (".h", ".cc")]


def sha(data):
    return hashlib.sha256(data).hexdigest()


def build_registry(files, scan_root, cache):
    """Extraction pass over every file; returns the merged registry.

    Per-file extractions are context-free, so they are cached on the
    file's content hash alone.
    """
    registry = {
        "returns": {},       # fn name -> set of return classes
        "marked": set(),     # fn names with at least one nodiscard decl
        "enums": {},         # enum name -> [enumerators]
    }
    per_file = {}
    for path in files:
        rel = str(path.relative_to(scan_root))
        content = path.read_bytes()
        digest = sha(content)
        entry = cache["files"].get(rel)
        if entry is not None and entry.get("hash") == digest and \
                "extract" in entry:
            ext = entry["extract"]
            decls = [Decl(**d) for d in ext["decls"]]
            enums = ext["enums"]
            per_file[rel] = (digest, decls, ext["spans"], enums, None)
        else:
            toks = tokenize(content.decode(errors="replace"))
            decls, spans = extract_decls(toks)
            enums = extract_enums(toks)
            span_lines = [(toks[s].line, toks[e - 1].line)
                          for s, e in spans]
            per_file[rel] = (digest, decls, span_lines, enums, toks)
            cache["files"].setdefault(rel, {})
            cache["files"][rel]["hash"] = digest
            cache["files"][rel]["extract"] = {
                "decls": [{k: getattr(d, k) for k in Decl.__slots__}
                          for d in decls],
                "spans": span_lines,
                "enums": enums,
            }
    for rel, (_, decls, _, enums, _) in per_file.items():
        for d in decls:
            if d.kind != "fn":
                continue
            registry["returns"].setdefault(d.name, set()).add(d.ret)
            if d.nodiscard and d.ret in ("Status", "Result"):
                registry["marked"].add(d.name)
        for name, values in enums.items():
            registry["enums"].setdefault(name, values)
    return registry, per_file


def must_check_names(registry):
    """Unambiguous must-check call names: every known overload of the
    name returns a watched type. A name that also has (say) a void
    overload is skipped by the builtin frontend — the clang cross-check
    and the [[nodiscard]] attributes cover those precisely."""
    out = {}
    for name, rets in registry["returns"].items():
        watched = rets & (WATCHED_CLASS_RETURNS | WATCHED_ENUM_RETURNS)
        if watched and rets == watched:
            out[name] = "/".join(sorted(watched))
    return out


def environment_hash(registry, analyzer_source_hash):
    blob = json.dumps({
        "version": ANALYZER_VERSION,
        "source": analyzer_source_hash,
        "returns": {k: sorted(v) for k, v in
                    sorted(registry["returns"].items())},
        "marked": sorted(registry["marked"]),
        "enums": {k: v for k, v in sorted(registry["enums"].items())},
        "choke": [e["method"] for e in CHOKE_POINTS],
        "protocol_enums": sorted(PROTOCOL_ENUMS),
    }, sort_keys=True).encode()
    return sha(blob)


def analyze_tree(scan_root, cache, fixes=None):
    """Runs every rule over scan_root; returns (violations, stats)."""
    files = scan_files(scan_root)
    registry, per_file = build_registry(files, scan_root, cache)
    must_check = must_check_names(registry)
    source_hash = sha(Path(__file__).read_bytes())
    env = environment_hash(registry, source_hash)

    violations = []
    stats = {"files": len(files), "analyzed": 0, "cached": 0}
    for path in files:
        rel = str(path.relative_to(scan_root))
        digest, decls, span_lines, enums, toks = per_file[rel]
        entry = cache["files"][rel]
        if fixes is None and entry.get("env") == env and \
                entry.get("hash") == digest and "verdict" in entry:
            violations.extend(tuple(v) for v in entry["verdict"])
            stats["cached"] += 1
            continue
        text = path.read_text(errors="replace")
        if toks is None:
            toks = tokenize(text)
        file_violations = []
        waived = extract_waivers(text, rel, file_violations)
        check_unchecked_calls(toks, rel, must_check, waived,
                              file_violations)
        # Recompute spans as token indices for the local-variable scan.
        _, tok_spans = extract_decls(toks)
        check_unread_status_locals(toks, rel, decls, tok_spans, waived,
                                   file_violations)
        check_nodiscard(rel, decls, registry["marked"], waived,
                        file_violations, fixes)
        check_enum_switches(toks, rel, registry["enums"], waived,
                            file_violations)
        check_choke_points(toks, rel, waived, file_violations)
        entry["env"] = env
        entry["verdict"] = [list(v) for v in file_violations]
        violations.extend(file_violations)
        stats["analyzed"] += 1
    return violations, stats


def load_cache(cache_path):
    if cache_path is None:
        return {"files": {}}
    try:
        data = json.loads(cache_path.read_text())
        if data.get("version") == ANALYZER_VERSION and \
                isinstance(data.get("files"), dict):
            return data
    except (OSError, json.JSONDecodeError, ValueError):
        pass
    return {"files": {}}


def save_cache(cache_path, cache):
    if cache_path is None:
        return
    cache["version"] = ANALYZER_VERSION
    try:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(cache))
    except OSError as err:
        print(f"seep_analyzer: cache not written: {err}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# clang cross-check (gated: degrades to a notice without a toolchain)
# ---------------------------------------------------------------------------

def clang_verify(repo_root, db_path, violations):
    clang = shutil.which("clang++")
    if clang is None:
        print("seep_analyzer: clang++ not found; --clang-verify skipped "
              "(the builtin frontend remains authoritative)")
        return
    if not db_path.is_file():
        print(f"seep_analyzer: no compile database at {db_path}; "
              "configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON first",
              file=sys.stderr)
        return
    entries = json.loads(db_path.read_text())
    diag_re = re.compile(
        r"^(?P<file>[^:]+):(?P<line>\d+):\d+: warning: ignoring return "
        r"value")
    checked = 0
    for entry in entries:
        src = Path(entry["file"])
        try:
            rel = src.resolve().relative_to(repo_root / "src")
        except ValueError:
            continue
        if src.suffix != ".cc":
            continue
        if "arguments" in entry:
            args = list(entry["arguments"])
        else:
            args = shlex.split(entry["command"])
        # Reuse the TU's real flags but only ask for the one warning.
        out = []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            out.append(a)
        cmd = [clang, "-fsyntax-only", "-w", "-Wunused-result",
               "-Wno-unknown-warning-option"] + out
        proc = subprocess.run(cmd, cwd=entry.get("directory", "."),
                              capture_output=True, text=True)
        checked += 1
        for line in proc.stderr.splitlines():
            m = diag_re.match(line)
            if m:
                violations.append((
                    "unchecked-status",
                    f"src/{rel}:{m.group('line')}",
                    "clang -Wunused-result: discarded [[nodiscard]] "
                    "value (cross-check of the builtin frontend)"))
    print(f"seep_analyzer: clang cross-check over {checked} TU(s)")


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def expected_fixture_rules():
    return {
        "unchecked-status", "nodiscard-coverage",
        "enum-switch-exhaustiveness", "choke-point",
        "waiver-needs-reason",
    }


def self_test(repo_root):
    fixtures = repo_root / "tests" / "lint_fixtures" / "analyzer"
    bad, good = fixtures / "bad", fixtures / "good"
    failures = []
    if not bad.is_dir() or not good.is_dir():
        print(f"seep_analyzer: fixture tree missing under {fixtures}",
              file=sys.stderr)
        return lint_common.EXIT_VIOLATIONS

    bad_violations, _ = analyze_tree(bad, {"files": {}})
    good_violations, _ = analyze_tree(good, {"files": {}})
    if good_violations:
        failures.append(
            "negative fixture tree is expected to be clean but got: " +
            "; ".join(f"{w} [{r}]" for r, w, _ in good_violations))

    # Cache invalidation: analyzing a copy of the clean tree twice hits
    # the verdict cache; editing a *header* (a new Status-returning
    # declaration) changes the registry fingerprint, so the dependent TU
    # must be re-analyzed — and must now flag its formerly-clean call.
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(good, tree)
        cache = {"files": {}}
        _, cold = analyze_tree(tree, cache)
        _, warm = analyze_tree(tree, cache)
        if warm["cached"] != warm["files"] or warm["analyzed"] != 0:
            failures.append(
                f"verdict cache did not hold on an unchanged tree "
                f"(cached {warm['cached']}/{warm['files']})")
        header = tree / "helper.h"
        header.write_text(header.read_text().replace(
            "void Ping();", "[[nodiscard]] Status Ping();"))
        after_violations, hot = analyze_tree(tree, cache)
        if hot["analyzed"] == 0:
            failures.append("editing a header re-analyzed no TU "
                            "(cache failed to invalidate)")
        if not any(r == "unchecked-status" and "uses_header" in w
                   for r, w, _ in after_violations):
            failures.append(
                "dependent TU was not re-checked against the edited "
                "header (expected an unchecked-status hit in "
                "uses_header.cc)")
        if cold["analyzed"] != cold["files"]:
            failures.append("cold run unexpectedly hit the cache")

    return lint_common.self_test_verdict(
        "seep_analyzer", expected_fixture_rules(), bad_violations,
        failures)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule on tests/lint_fixtures/"
                             "analyzer/ and exercise the cache")
    parser.add_argument("--fix", action="store_true",
                        help="insert missing [[nodiscard]] attributes")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the verdict cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: "
                             "<root>/build/.cache)")
    parser.add_argument("--clang-verify", action="store_true",
                        help="cross-check unchecked-status with clang "
                             "-Wunused-result over the compile database "
                             "(skipped with a notice when clang or the "
                             "database is missing)")
    parser.add_argument("--compile-db", default=None,
                        help="compile_commands.json path (default: "
                             "<root>/build/compile_commands.json)")
    args = parser.parse_args()

    repo_root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(repo_root)

    scan_root = repo_root / "src"
    if not scan_root.is_dir():
        print(f"seep_analyzer: no src/ under {repo_root}",
              file=sys.stderr)
        return lint_common.EXIT_USAGE

    cache_path = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir \
            else repo_root / "build" / ".cache"
        cache_path = cache_dir / "seep_analyzer_cache.json"
    cache = load_cache(cache_path)

    fixes = {} if args.fix else None
    violations, stats = analyze_tree(scan_root, cache, fixes)
    save_cache(cache_path, cache)

    if args.fix and fixes:
        edited = apply_nodiscard_fixes(scan_root, fixes)
        print(f"seep_analyzer: inserted {edited} [[nodiscard]] "
              f"attribute(s) across {len(fixes)} file(s); re-run to "
              "verify")

    if args.clang_verify:
        db = Path(args.compile_db) if args.compile_db \
            else repo_root / "build" / "compile_commands.json"
        clang_verify(repo_root, db, violations)

    code = lint_common.report(
        "seep_analyzer", violations,
        f"semantic rules clean ({stats['files']} files, "
        f"{stats['analyzed']} analyzed, {stats['cached']} verdicts "
        "cached)")
    return code


if __name__ == "__main__":
    sys.exit(main())
