#!/usr/bin/env bash
# Runs the execution-engine benchmarks and drops their machine-readable
# results at the repository root.
#
# Usage: bench/run_benches.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -d "$build_dir" ]]; then
  echo "configuring $build_dir" >&2
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target bench_vectorized_exec bench_compiled_expr \
  bench_plan_cache bench_observability bench_serving bench_feedback \
  bench_parallel_exec bench_governor_overhead bench_data_plane -j "$(nproc)"

"$build_dir/bench/bench_vectorized_exec" "$repo_root/BENCH_vectorized.json"
echo "wrote $repo_root/BENCH_vectorized.json"

# Exits nonzero if the compiled-vs-interpreted speedup gate (>= 2x) fails.
"$build_dir/bench/bench_compiled_expr" "$repo_root/BENCH_compiled_expr.json"
echo "wrote $repo_root/BENCH_compiled_expr.json"

"$build_dir/bench/bench_plan_cache" "$repo_root/BENCH_plan_cache.json"
echo "wrote $repo_root/BENCH_plan_cache.json"

"$build_dir/bench/bench_observability" "$repo_root/BENCH_observability.json"
echo "wrote $repo_root/BENCH_observability.json"

# Exits nonzero on a parallel/serial row-stat divergence or a modeled
# speedup below 2x at dop 4.
"$build_dir/bench/bench_parallel_exec" "$repo_root/BENCH_parallel.json"
echo "wrote $repo_root/BENCH_parallel.json"

"$build_dir/bench/bench_governor_overhead" "$repo_root/BENCH_governor.json"
echo "wrote $repo_root/BENCH_governor.json"

"$build_dir/bench/bench_serving" "$repo_root/BENCH_serving.json"
echo "wrote $repo_root/BENCH_serving.json"

"$build_dir/bench/bench_feedback" "$repo_root/BENCH_feedback.json"
echo "wrote $repo_root/BENCH_feedback.json"

# Exits nonzero if a data-plane claim fails (pruning proportionality,
# spill byte-identity, parallel speedup gate).
"$build_dir/bench/bench_data_plane" "$repo_root/BENCH_data_plane.json"
echo "wrote $repo_root/BENCH_data_plane.json"
