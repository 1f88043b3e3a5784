#!/usr/bin/env bash
# Byte-identity oracle: hashes the stdout of the deterministic figure, table
# and ablation benches and engine examples and diffs the set against the
# checked-in bench/golden_stdout.sha256. A command run at several thread
# counts must print the same bytes at each; the population bench, whose
# stdout carries timings, is checked by the report hash it prints per
# thread count.
#
#   tools/check_golden.sh [build-dir] [--print]  # --print: fresh golden lines
#
# Needs a Release build with benches and examples. Each command runs in a
# fresh temporary directory: the benches append to BENCH_results.json.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
b="$(cd "${1:-$repo/build}" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail=0
fresh=""

# in_fresh_dir [VAR=value...] BIN ARGS...: runs the command in a new directory.
in_fresh_dir() { (cd "$(mktemp -d "$tmp/run.XXXXXX")" && env "$@"); }
hash_of() { in_fresh_dir "$@" | sha256sum | cut -d' ' -f1; }

# one NAME HASH...: records NAME's hash; all given hashes must agree.
one() {
  local name="$1" h
  for h in "${@:2}"; do
    if [[ "$h" != "$2" ]]; then
      echo "FAIL $name: output differs across thread counts: ${*:2}" >&2
      fail=1
    fi
  done
  fresh+="$2  $name"$'\n'
}

one fig4_receivers "$(hash_of FOUNTAIN_BENCH_QUICK=1 "$b/bench_fig4_receivers")"
one fig8_prototype "$(hash_of FOUNTAIN_BENCH_QUICK=1 "$b/bench_fig8_prototype")"
one fig7_adaptation "$(hash_of FOUNTAIN_BENCH_QUICK=1 "$b/bench_fig7_adaptation")"
one fig7_tree "$(hash_of FOUNTAIN_BENCH_QUICK=1 "$b/bench_fig7_tree")"
one fig6_trace "$(hash_of "$b/bench_fig6_trace")"
one layered_session $(for t in 1 2 4; do
                        hash_of "$b/layered_session" 12 2000000 "$t"; done)
one dispersity_routing "$(hash_of "$b/dispersity_routing")"
one software_update $(for t in 1 2 4; do
                        hash_of "$b/software_update" 60 512 "$t"; done)
one mirror_aggregation "$(hash_of "$b/mirror_aggregation" 3)"
one fig2_overhead "$(hash_of FOUNTAIN_BENCH_QUICK=1 "$b/bench_fig2_overhead")"
one table5_schedule "$(hash_of "$b/bench_table5_schedule")"
one ablation_degree "$(hash_of "$b/bench_ablation_degree")"
one ablation_stretch "$(hash_of "$b/bench_ablation_stretch")"
pop="$(in_fresh_dir FOUNTAIN_BENCH_QUICK=1 "$b/bench_population_scale" \
         --threads 1,2,4 | sed -n 's/.*report hash \([0-9a-f]*\).*/\1/p')"
if [[ "$(wc -w <<< "$pop")" -ne 3 ]]; then
  echo "FAIL population_report: expected 3 report hashes, got: $pop" >&2
  fail=1
fi
one population_report $pop

if [[ "${2:-}" == "--print" ]]; then
  printf '%s' "$fresh"
elif diff -u "$repo/bench/golden_stdout.sha256" <(printf '%s' "$fresh"); then
  echo "golden outputs: all $(grep -c . <<< "$fresh") match"
else
  echo "FAIL golden outputs differ (- checked in, + this build)" >&2
  fail=1
fi
exit "$fail"
