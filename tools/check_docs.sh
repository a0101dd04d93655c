#!/usr/bin/env sh
# Docs-consistency check, run in CI.
#
# Fails when the docs drift from the tree:
#   1. every top-level module under src/ must appear (as src/<name>) in
#      docs/ARCHITECTURE.md;
#   2. every checked-in BENCH_*.json must be referenced by EXPERIMENTS.md
#      and by the results table in README.md;
#   3. every BENCH_*.json must have a bench binary registered in
#      bench/CMakeLists.txt that emits it (qopt_bench(bench_<name>));
#   4. every QueryOptions::<field> in docs/*.md and every `o.<field> in
#      README.md (first path segment) must name a field of
#      struct QueryOptions in src/engine/database.h.
#
# Usage: tools/check_docs.sh   (from anywhere; resolves the repo root)
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
fail=0

err() {
  echo "check_docs: $*" >&2
  fail=1
}

[ -f "$root/docs/ARCHITECTURE.md" ] || err "docs/ARCHITECTURE.md is missing"
[ -f "$root/docs/OBSERVABILITY.md" ] || err "docs/OBSERVABILITY.md is missing"
[ -f "$root/docs/SERVING.md" ] || err "docs/SERVING.md is missing"
[ -f "$root/docs/FEEDBACK.md" ] || err "docs/FEEDBACK.md is missing"
[ -f "$root/docs/EXPRESSIONS.md" ] || err "docs/EXPRESSIONS.md is missing"
[ -f "$root/docs/DATA_PLANE.md" ] || err "docs/DATA_PLANE.md is missing"
[ "$fail" -eq 0 ] || exit 1

for dir in "$root"/src/*/; do
  mod=$(basename "$dir")
  grep -q "src/$mod" "$root/docs/ARCHITECTURE.md" ||
    err "src/$mod not mentioned in docs/ARCHITECTURE.md"
done

for json in "$root"/BENCH_*.json; do
  [ -e "$json" ] || continue
  name=$(basename "$json")
  grep -q "$name" "$root/EXPERIMENTS.md" ||
    err "$name has no entry in EXPERIMENTS.md"
  grep -q "$name" "$root/README.md" ||
    err "$name missing from the README.md results table"
  # BENCH_foo.json must come from a registered bench_foo binary.
  stem=$(echo "$name" | sed 's/^BENCH_//; s/\.json$//')
  case $stem in
    vectorized) bench=bench_vectorized_exec ;;
    governor) bench=bench_governor_overhead ;;
    parallel) bench=bench_parallel_exec ;;
    *) bench=bench_$stem ;;
  esac
  grep -q "qopt_bench($bench)" "$root/bench/CMakeLists.txt" ||
    err "$name: no qopt_bench($bench) in bench/CMakeLists.txt"
done

# Field names of struct QueryOptions: the last word of each member line.
fields=$(awk '/^struct QueryOptions /,/^};/' "$root/src/engine/database.h" |
  awk '/^  [A-Za-z]/ { sub(/ = .*/, ""); sub(/;.*/, ""); print $NF }')
[ -n "$fields" ] || err "no struct QueryOptions fields in src/engine/database.h"
hits=$(grep -on 'QueryOptions::[A-Za-z_][A-Za-z0-9_]*' "$root"/docs/*.md
  grep -Hon '`o\.[A-Za-z_][A-Za-z0-9_]*' "$root/README.md")
old_ifs=$IFS
IFS='
'
for hit in $hits; do
  field=${hit##*[:.]}
  rest=${hit#"$root"/}  # <file>:<line>:<match>
  line=${rest#*:}
  echo "$fields" | grep -qx "$field" ||
    err "${rest%%:*}:${line%%:*}: QueryOptions has no field '$field'"
done
IFS=$old_ifs

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK"
