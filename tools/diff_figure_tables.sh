#!/usr/bin/env bash
# Checks that a change leaves the paper's figure tables byte-identical: builds
# <base-ref> (from a temporary `git archive` export) and the working tree in
# Release, runs the named figure benches on both, blanks the wall-clock
# columns google-benchmark prints, and diffs the output. The simulation is
# deterministic, so any remaining difference is a semantic change.
#
# Usage: tools/diff_figure_tables.sh <base-ref> [bench...]
#   tools/diff_figure_tables.sh HEAD~1                 # all 11 figure benches
#   tools/diff_figure_tables.sh main bench_fig11_recovery_modes
#
# Exits 0 when every table matches, 1 on any difference, 2 on usage or
# build errors.
# The export lives under ${TMPDIR:-/tmp} and is removed on exit; the working
# tree builds into build-figtables/. All 11 benches take ~25 minutes per
# side on a 4-core machine (bench_lrating alone ~11).

set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="$1"
shift
benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  benches=(bench_fig06_lrb_scaleout bench_fig07_lrb_latency
           bench_fig08_openloop_topk bench_fig09_threshold
           bench_fig10_manual_vs_dynamic bench_fig11_recovery_modes
           bench_fig12_ckpt_interval bench_fig13_parallel_recovery
           bench_fig14_ckpt_overhead bench_fig15_tradeoff bench_lrating)
fi
jobs="$(nproc)"

work="$(mktemp -d "${TMPDIR:-/tmp}/figtables.XXXXXX")"
trap 'rm -rf "${work}"' EXIT

build() {  # <source dir> <build dir>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "${jobs}" --target "${benches[@]}"; } \
       >"${work}/build.log" 2>&1; then
    cat "${work}/build.log" >&2
    echo "build of $1 failed" >&2
    exit 2
  fi
}

echo "building ${base_ref} ..."
mkdir -p "${work}/base"
git -C "${repo_root}" archive "${base_ref}" | tar -x -C "${work}/base"
build "${work}/base" "${work}/base-build"
echo "building the working tree ..."
build "${repo_root}" "${repo_root}/build-figtables"

# google-benchmark's result line carries the run's wall and CPU time; every
# other printed figure comes from simulated time.
normalize() {
  sed -E 's/[[:space:]]+[0-9.]+ (ns|us|ms|s)[[:space:]]+[0-9.]+ (ns|us|ms|s)[[:space:]]+/ <wall> <cpu> /'
}

status=0
for bench in "${benches[@]}"; do
  for side in base head; do
    bin="${work}/base-build/bench/${bench}"
    [[ ${side} == head ]] && bin="${repo_root}/build-figtables/bench/${bench}"
    mkdir -p "${work}/run-${side}"
    (cd "${work}/run-${side}" && "${bin}" 2>/dev/null) | normalize \
        >"${work}/${bench}.${side}"
  done
  if diff -u "${work}/${bench}.base" "${work}/${bench}.head"; then
    echo "same: ${bench}"
  else
    echo "DIFFERENT: ${bench}"
    status=1
  fi
done
exit "${status}"
