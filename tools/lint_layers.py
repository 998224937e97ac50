#!/usr/bin/env python3
"""Static architecture lint: checks the include graph against the layer map.

The repo is layered (see DESIGN.md): each directory under src/ may only
include headers from itself and from the layers listed in LAYER_DEPS. On
top of the layer map, seven seam rules protect the component interfaces
introduced by the runtime decomposition, the networking subsystem, the
reconfiguration plane and the durable checkpoint store:

  * control-no-raw-network: src/control/ must not include sim/network.h.
    Coordinators act on the cluster through the Transport interface; a
    coordinator talking to the simulated network directly bypasses the
    seam the fault-injection and audit hooks rely on.
  * component-no-cluster-header: runtime component *headers* (everything
    in src/runtime/ except cluster.h itself) must not include
    runtime/cluster.h. Components are wired by Cluster, they do not know
    it; headers forward-declare Cluster and only .cc files include it.
  * net-isolation: src/net/ is a leaf I/O library that knows only bytes
    and frames; it must never include runtime/, control/, cloud/ or sim/
    headers. Message *bodies* are opaque to net; decoding them is the
    transport's job.
  * net-only-in-transport: outside src/net/ itself, only the Transport
    implementations (src/runtime/transport.* and tcp_transport.*) may
    include net/ headers. Everything else reaches the network through
    the runtime::Transport seam, keeping the sim path byte-identical.
  * ckpt-worker-no-net: the checkpoint pipeline's code
    (src/runtime/ckpt_*) must not include net/ headers. Serialized frames
    reach the wire only through the Transport seam; pipeline code writing
    sockets directly would bypass both the per-link FIFO the replay
    fences assume and the checks every parcel passes on arrival.
  * store-isolation: src/store/ is a storage-engine leaf; it may include
    only serde/ (framing, crc, compression) and common/. The log knows
    bytes and record metadata, never operators, checkpoint objects or
    the cluster — those live above the BackupStore seam.
  * store-only-in-backup-path: outside src/store/ itself, only the
    backup/recovery path (runtime/backup_store.* and runtime/cluster.*)
    may include store/ headers. Coordinators, transports and workers see
    durability exclusively through the BackupStore tier, so the kMemory
    default stays byte-identical and the log can change format freely.
  * no-upward-dependency: a layer including a header from a higher layer
    (e.g. core including runtime/) — the generic layer-map check.

The former coordinator-via-plan-only regex rule is retired: its
invariant (cluster mutations only through the reconfiguration plane's
choke points) is now enforced AST-accurately by tools/seep_analyzer.py's
choke-point-discipline rule, which resolves actual call expressions
instead of pattern-matching source text.

Exit status: 0 when clean, 1 on any violation (CI fails), 2 on usage
errors. `--self-test` runs the lint against tests/lint_fixtures/, a tiny
fake tree that contains one violation of each rule, and verifies each is
reported.
"""

import argparse
import re
import sys
from pathlib import Path

import lint_common

# Allowed include targets per src/ directory (besides itself). Mirrors the
# target_link_libraries graph in src/*/CMakeLists.txt; keep the two in sync.
LAYER_DEPS = {
    "common": set(),
    "serde": {"common"},
    "sim": {"common"},
    "net": {"common", "serde"},
    "cloud": {"common", "sim"},
    "store": {"common", "serde"},
    "core": {"common", "serde"},
    "verify": {"common", "serde", "core"},
    "workloads": {"common", "serde", "core"},
    "runtime": {"common", "serde", "sim", "net", "cloud", "store", "core",
                "verify"},
    "control": {"common", "serde", "sim", "cloud", "core", "verify",
                "runtime"},
    "sps": {"common", "serde", "sim", "cloud", "core", "verify", "runtime",
            "control", "workloads"},
}

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')

# The only files outside src/net/ allowed to include net/ headers: the
# Transport seam and its TCP implementation.
NET_INCLUDE_ALLOWLIST = {
    Path("runtime/transport.h"), Path("runtime/transport.cc"),
    Path("runtime/tcp_transport.h"), Path("runtime/tcp_transport.cc"),
}

# Layers the net library must never see: anything that runs protocol
# logic or the simulation. net ships opaque framed bytes, nothing more.
NET_FORBIDDEN_TARGETS = {"runtime", "control", "cloud", "sim"}

# The only files outside src/store/ allowed to include store/ headers:
# the BackupStore tiering seam and the Cluster that owns/wires the log.
STORE_INCLUDE_ALLOWLIST = {
    Path("runtime/backup_store.h"), Path("runtime/backup_store.cc"),
    Path("runtime/cluster.h"), Path("runtime/cluster.cc"),
}

# What the storage engine itself may include: framing/compression and the
# base layer. Anything else is protocol knowledge leaking below the seam.
STORE_ALLOWED_TARGETS = {"store", "serde", "common"}


def quoted_includes(path):
    """Yields (line_number, include_path) for every quoted include."""
    for number, line in enumerate(
            path.read_text(errors="replace").splitlines(), start=1):
        match = INCLUDE_RE.match(line)
        if match:
            yield number, match.group(1)


def lint_tree(src_root):
    """Returns a list of (rule, "file:line", detail) violations."""
    violations = []
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(src_root)
        layer = rel.parts[0]
        allowed = LAYER_DEPS.get(layer)
        if allowed is None:
            continue  # not a mapped layer (e.g. a stray file at src/)
        for number, inc in quoted_includes(path):
            target = inc.split("/", 1)[0] if "/" in inc else None
            where = f"{src_root}/{rel}:{number}"
            if target in LAYER_DEPS and target != layer \
                    and target not in allowed and layer != "store":
                violations.append((
                    "no-upward-dependency", where,
                    f"layer '{layer}' must not include '{inc}' "
                    f"(allowed: {', '.join(sorted(allowed)) or 'none'})"))
            if layer == "store" and target in LAYER_DEPS \
                    and target not in STORE_ALLOWED_TARGETS:
                violations.append((
                    "store-isolation", where,
                    "src/store/ is a storage-engine leaf over serde/ and "
                    f"common/; it must not include '{inc}' — protocol "
                    "objects stay above the BackupStore seam"))
            if layer != "store" and inc.startswith("store/") \
                    and rel not in STORE_INCLUDE_ALLOWLIST:
                violations.append((
                    "store-only-in-backup-path", where,
                    "only the backup/recovery path (runtime/backup_store.*, "
                    "runtime/cluster.*) may include store/ headers; "
                    "everything else sees durability through the "
                    "BackupStore tier"))
            if layer == "control" and inc == "sim/network.h":
                violations.append((
                    "control-no-raw-network", where,
                    "coordinators must reach the network through the "
                    "Transport interface, never sim::Network directly"))
            if layer == "net" and target in NET_FORBIDDEN_TARGETS:
                violations.append((
                    "net-isolation", where,
                    "src/net/ ships opaque framed bytes; it must not "
                    f"include '{inc}' — message bodies are decoded by "
                    "the transport, above the seam"))
            if layer == "runtime" and rel.name.startswith("ckpt_") \
                    and inc.startswith("net/"):
                violations.append((
                    "ckpt-worker-no-net", where,
                    "checkpoint pipeline worker code must not touch net/ "
                    "directly; frames reach the wire through the "
                    "runtime::Transport seam"))
            if layer != "net" and inc.startswith("net/") \
                    and rel not in NET_INCLUDE_ALLOWLIST:
                violations.append((
                    "net-only-in-transport", where,
                    "only the Transport implementations "
                    "(runtime/transport.*, runtime/tcp_transport.*) may "
                    "include net/ headers; everything else goes through "
                    "the runtime::Transport seam"))
            if layer == "runtime" and path.suffix == ".h" \
                    and rel.name != "cluster.h" \
                    and inc == "runtime/cluster.h":
                violations.append((
                    "component-no-cluster-header", where,
                    "runtime component headers forward-declare Cluster; "
                    "only their .cc files may include runtime/cluster.h"))
    return violations


def self_test(repo_root):
    """Lints tests/lint_fixtures/ and checks every rule fires there."""
    fixtures = repo_root / "tests" / "lint_fixtures"
    if not fixtures.is_dir():
        print(f"lint_layers: fixture tree missing: {fixtures}",
              file=sys.stderr)
        return 1
    expected = {"no-upward-dependency", "control-no-raw-network",
                "component-no-cluster-header", "net-isolation",
                "net-only-in-transport", "ckpt-worker-no-net",
                "store-isolation", "store-only-in-backup-path"}
    return lint_common.self_test_verdict(
        "lint_layers", expected, lint_tree(fixtures))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on tests/lint_fixtures")
    args = parser.parse_args()

    repo_root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(repo_root)

    src_root = repo_root / "src"
    if not src_root.is_dir():
        print(f"lint_layers: no src/ under {repo_root}", file=sys.stderr)
        return lint_common.EXIT_USAGE
    return lint_common.report(
        "lint_layers", lint_tree(src_root), "include graph clean")


if __name__ == "__main__":
    sys.exit(main())
