#!/usr/bin/env bash
# Checks that a change does the same work as <base-ref>: runs perfbench
# workloads traced (`--seconds 0.1 --trace 1`) on a `git archive` export of
# <base-ref> and on the working tree, and diffs the per-layer counters that
# count work rather than time. The simulation is deterministic, so a change
# that keeps the work keeps every one of them. store_fsyncs (paced by the
# wall-clock fsync interval) and heap_mb (the allocator's) are printed side
# by side but not compared.
#
# Usage: tools/diff_traced_counters.sh <base-ref> [workload:seed ...]
#   tools/diff_traced_counters.sh HEAD~1             # 3 workloads x seeds 21, 22
#   tools/diff_traced_counters.sh main tcp_failover:21
#
# Exits 0 when every counter matches, 1 on a difference or on a run that is
# not correct or has failed repetitions, 2 on usage or build errors.
# Each side builds into its own CARGO_TARGET_DIR under ${TMPDIR:-/tmp},
# removed on exit, so neither tree gets a .bench_build. The first run of
# each side builds perfbench in Release (a few minutes on a 4-core machine).

set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="$1"
shift
runs=("$@")
if [[ ${#runs[@]} -eq 0 ]]; then
  runs=(lrb_scaleout:21 lrb_scaleout:22 tcp_failover:21 tcp_failover:22
        durable_recovery:21 durable_recovery:22)
fi
for run in "${runs[@]}"; do
  if [[ ! ${run} =~ ^[a-z_]+:[0-9]+$ ]]; then
    echo "bad run '${run}': expected workload:seed" >&2
    exit 2
  fi
done

work="$(mktemp -d "${TMPDIR:-/tmp}/tracedcounters.XXXXXX")"
trap 'rm -rf "${work}"' EXIT

mkdir -p "${work}/base"
if ! git -C "${repo_root}" archive "${base_ref}" | tar -x -C "${work}/base"
then
  echo "cannot export ${base_ref}" >&2
  exit 2
fi

status=0
for run in "${runs[@]}"; do
  workload="${run%%:*}"
  seed="${run##*:}"
  for side in base head; do
    tree="${work}/base"
    [[ ${side} == head ]] && tree="${repo_root}"
    out="${work}/${side}.${workload}.${seed}"
    if ! CARGO_TARGET_DIR="${work}/target-${side}" python3 \
        "${tree}/perfbench/run.py" --workload "${workload}" --seed "${seed}" \
        --seconds 0.1 --trace 1 >"${out}.json" 2>"${out}.log"; then
      tail -n 40 "${out}.log" >&2
      if grep -q '^perfbench: \(cmake configure\|build\) failed' \
          "${out}.log"; then
        echo "build of ${side} failed" >&2
        exit 2
      fi
      echo "FAILED: ${run} did not finish on ${side}" >&2
      status=1
      continue 2
    fi
  done
  python3 - "${work}/base.${workload}.${seed}.json" \
      "${work}/head.${workload}.${seed}.json" "${run}" <<'EOF' || status=1
import json
import sys

GATED = ["sim_events", "batches_processed", "checkpoints", "checkpoint_kb",
         "tuples_replayed", "duplicates_dropped", "plans_committed",
         "tcp_messages", "tcp_frames_dropped", "tcp_disconnects",
         "store_appends", "store_append_kb", "store_reads"]
SHOWN = ["store_fsyncs", "heap_mb"]


def load(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])


base, head, run = load(sys.argv[1]), load(sys.argv[2]), sys.argv[3]
ok = True
for name, side in (("base", base), ("head", head)):
    if not side["correct"] or side["failed"] != 0:
        print(f"FAILED: {run} on {name}: correct={side['correct']}, "
              f"failed {side['failed']} of {side['attempted']}")
        ok = False
diffs = []
for m in GATED:
    b, h = base["metrics"][m]["value"], head["metrics"][m]["value"]
    if b != h:
        diffs.append(f"  {m}: {b:.17g} -> {h:.17g}")
shown = ", ".join(f"{m} {base['metrics'][m]['value']:.6g} -> "
                  f"{head['metrics'][m]['value']:.6g}" for m in SHOWN)
if diffs:
    print(f"DIFFERENT: {run} ({shown})")
    print("\n".join(diffs))
    ok = False
else:
    counts = ", ".join(f"{m} {head['metrics'][m]['value']:.6g}"
                       for m in GATED if head["metrics"][m]["value"] != 0)
    print(f"same: {run}: {counts} ({shown})")
sys.exit(0 if ok else 1)
EOF
done
exit "${status}"
