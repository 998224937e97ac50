#!/usr/bin/env bash
# Builds the benches in Release mode and runs the state hot-path, net
# transport, checkpoint pipeline, durable store and serde benchmarks,
# leaving BENCH_state_hot_paths.json, BENCH_net_transport.json,
# BENCH_ckpt_pipeline.json, BENCH_durable_store.json and BENCH_serde.json in
# the repo root.
#
# Usage: tools/run_benches.sh [extra bench binaries...]
#   tools/run_benches.sh                         # default benches only
#   tools/run_benches.sh bench_fig12_ckpt_interval bench_fig14_ckpt_overhead

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-release"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" \
  --target bench_state_hot_paths bench_net_transport bench_ckpt_pipeline \
           bench_durable_store bench_serde "$@"

"${build_dir}/bench/bench_state_hot_paths" \
    "${repo_root}/BENCH_state_hot_paths.json"
"${build_dir}/bench/bench_net_transport" \
    "${repo_root}/BENCH_net_transport.json"
"${build_dir}/bench/bench_ckpt_pipeline" \
    "${repo_root}/BENCH_ckpt_pipeline.json"
"${build_dir}/bench/bench_durable_store" \
    "${repo_root}/BENCH_durable_store.json"
"${build_dir}/bench/bench_serde" "${repo_root}/BENCH_serde.json"

for bench in "$@"; do
  echo "==== ${bench} ===="
  "${build_dir}/bench/${bench}"
done

echo "results: ${repo_root}/BENCH_state_hot_paths.json"
echo "results: ${repo_root}/BENCH_net_transport.json"
echo "results: ${repo_root}/BENCH_ckpt_pipeline.json"
echo "results: ${repo_root}/BENCH_durable_store.json"
echo "results: ${repo_root}/BENCH_serde.json"
