#!/usr/bin/env bash
# Same-host perf regression gate for the sketch-update and query-serving
# hot paths.
#
# Builds this checkout and a base revision with the release preset on this
# host, runs the gated microbenchmark cells of both builds in alternating
# order for three rounds, takes each cell's median update_ns per side and
# diffs the base medians against this checkout's with bench_diff.py. Exits
# nonzero when any update_ns cell regresses by more than the bench_diff
# threshold (default 10%; the metrics cells 50%), so it can run as a
# pre-merge check:
#
#     scripts/bench_gate.sh [extra bench_diff.py args, e.g. --threshold 0.15]
#
# Both sides run on the same host within the same minutes, so the gate
# measures the change rather than the host: absolute nanoseconds committed
# from another machine do not enter it.
#
# The base is the merge-base of HEAD and main. On main itself it is HEAD
# when the working tree has uncommitted changes (the change under test is
# the working tree) and HEAD^ otherwise (the change under test is the last
# commit). The base is exported with `git archive` into a temporary
# directory, so nothing is registered in .git; this checkout's build stays
# in build-release/.
#
# Gated cells (the same set as the committed baselines): the micro_sketch
# append benchmarks, the single-thread metrics paths, the warm-query
# latency cells of micro_query, the -serial/-s1 cells of micro_shard, the
# keyed-*/lookup-warm cells of micro_tenant and the update-* cells of
# micro_amm. Cold-query latency, multi-reader QPS, S > 1 scaling, tenant
# churn and AMM product latency are host-shaped and do not gate.
#
# bench/baselines/ keeps the committed BENCH_micro_*.json files as the
# perf trajectory across changes. To refresh them from this checkout after
# an intentional perf change (one run, no comparison):
#
#     scripts/bench_gate.sh --update-baselines      (alias: --update-baseline)
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD

SKETCH_BASELINE=bench/baselines/BENCH_micro_sketch.json
QUERY_BASELINE=bench/baselines/BENCH_micro_query.json
METRICS_BASELINE=bench/baselines/BENCH_micro_metrics.json
SHARD_BASELINE=bench/baselines/BENCH_micro_shard.json
TENANT_BASELINE=bench/baselines/BENCH_micro_tenant.json
AMM_BASELINE=bench/baselines/BENCH_micro_amm.json
FILTER='BM_FrequentDirectionsAppend|BM_RandomProjectionAppend|BM_HashSketchAppend|BM_DsFdAppend'
# Per-event metrics costs (counter add, histogram record, scoped timer).
# The contended-counter and registry-lookup cells depend on core count /
# scheduler mood, so only the single-thread cached-handle paths gate.
METRICS_FILTER='BM_CounterAdd$|BM_GaugeSet|BM_HistogramRecord|BM_ScopedTimer'
MIN_TIME=2
ROUNDS=3
# The gated binaries; each writes BENCH_<name>.json.
MICROS=(micro_sketch micro_query micro_metrics micro_shard micro_tenant
        micro_amm)

update_baseline=0
diff_args=()
for arg in "$@"; do
  case "$arg" in
    --update-baseline|--update-baselines) update_baseline=1 ;;
    *) diff_args+=("$arg") ;;
  esac
done

# Configures and builds the gated binaries of the checkout in $1.
build_side() {
  (cd "$1" && cmake --preset release >/dev/null &&
     cmake --build build-release -j"$(nproc)" --target "${MICROS[@]}" \
       >/dev/null)
}

# One pass of every gated binary in bench dir $1; the BENCH_micro_*.json
# files land in $2.
run_suite() {
  local bin=$1 out=$2
  mkdir -p "$out"
  (
    cd "$out"
    "$bin/micro_sketch" \
      --benchmark_filter="${FILTER}" \
      --benchmark_min_time="${MIN_TIME}" \
      --benchmark_format=json 2>/dev/null |
      python3 "$ROOT/scripts/microbench_to_cells.py" --figure micro_sketch \
        -o BENCH_micro_sketch.json
    "$bin/micro_metrics" \
      --benchmark_filter="${METRICS_FILTER}" \
      --benchmark_min_time="${MIN_TIME}" \
      --benchmark_format=json 2>/dev/null |
      python3 "$ROOT/scripts/microbench_to_cells.py" --figure micro_metrics \
        -o BENCH_micro_metrics.json
    # micro_query / micro_shard / micro_tenant / micro_amm emit the cells
    # format directly into the working directory.
    "$bin/micro_query" --iters=3000 --duration_ms=200 >/dev/null
    "$bin/micro_shard" >/dev/null
    "$bin/micro_tenant" >/dev/null
    "$bin/micro_amm" >/dev/null
  )
}

# Keeps the cells of BENCH json $1 that satisfy the python predicate $3
# (over `c`, one cell) and writes the result to $2.
filter_cells() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["cells"] = [c for c in doc["cells"] if eval(sys.argv[3], {"c": c})]
with open(sys.argv[2], "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
EOF
}

# Only the warm-query latency cells gate: cold latency depends on the
# block structure the ingest happened to leave and multi-reader QPS on the
# host's core count.
WARM='c["algorithm"].startswith("warm-")'
# Only the single-threaded shard cells gate: `-serial` (plain sketch) and
# `-s1` (one-shard pipeline, i.e. the sharding overhead itself). The S > 1
# scaling cells are machine-shaped — a 1-core runner cannot speed up.
SHARD='c["algorithm"].endswith(("-serial", "-s1"))'
# Only the steady-state single-thread tenant cells gate: per-row keyed
# ingest (`keyed-*`) and the warm lookup path (`lookup-warm`). Creation
# bursts, eviction churn and the 100k budget fill are allocation-heavy
# and shaped by the host allocator, and the resident-bytes-* cells are
# capacity measurements (update_ns = bytes/tenant).
TENANT='c["algorithm"].startswith("keyed-") or c["algorithm"] == "lookup-warm"'
# Only the AMM ingest cells gate: `update-<alg>` (per-pair) and
# `update-<alg>-batch` (block fast path) are tight single-threaded loops.
# The product-* query-latency cells are eigensolve/allocation-shaped and
# too noisy at micro scale.
AMM='c["algorithm"].startswith("update-")'

if [[ "$update_baseline" == 1 ]]; then
  build_side "$ROOT"
  run_suite "$ROOT/build-release/bench" "$ROOT"
  cp BENCH_micro_sketch.json "$SKETCH_BASELINE"
  cp BENCH_micro_metrics.json "$METRICS_BASELINE"
  filter_cells BENCH_micro_query.json "$QUERY_BASELINE" "$WARM"
  filter_cells BENCH_micro_shard.json "$SHARD_BASELINE" "$SHARD"
  filter_cells BENCH_micro_tenant.json "$TENANT_BASELINE" "$TENANT"
  filter_cells BENCH_micro_amm.json "$AMM_BASELINE" "$AMM"
  echo "baselines refreshed: $SKETCH_BASELINE $METRICS_BASELINE" \
       "$QUERY_BASELINE $SHARD_BASELINE $TENANT_BASELINE $AMM_BASELINE"
  exit 0
fi

base_rev=$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD)
if [[ "$base_rev" == "$(git rev-parse HEAD)" ]]; then
  if git diff --quiet HEAD --; then base_rev=HEAD^; else base_rev=HEAD; fi
fi
base_commit=$(git rev-parse --verify "${base_rev}^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_gate.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base"
git archive "$base_commit" | tar -x -C "$work/base"
echo "bench_gate: base ${base_commit:0:12} vs this checkout, $ROUNDS rounds," \
     "$(nproc) cores" >&2

build_side "$work/base"
build_side "$ROOT"

# Alternate which side runs first, so drift in host load over the run
# falls on both sides alike.
for ((i = 1; i <= ROUNDS; i++)); do
  if ((i % 2)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    if [[ "$side" == base ]]; then bin="$work/base/build-release/bench"
    else bin="$ROOT/build-release/bench"; fi
    run_suite "$bin" "$work/runs/$side/$i"
  done
done

# Per side and figure: every cell's median update_ns over the rounds.
for side in base change; do
  mkdir -p "$work/$side.median"
  for fig in "${MICROS[@]}"; do
    python3 - "$work/$side.median/BENCH_$fig.json" \
      "$work/runs/$side"/*/"BENCH_$fig.json" <<'EOF'
import json, statistics, sys
docs = [json.load(open(f)) for f in sys.argv[2:]]
samples = {}
for doc in docs:
    for c in doc["cells"]:
        if "update_ns" in c:
            samples.setdefault((c["algorithm"], c["ell"]), []).append(
                c["update_ns"])
out = docs[0]
for c in out["cells"]:
    if "update_ns" in c:
        c["update_ns"] = statistics.median(samples[(c["algorithm"], c["ell"])])
with open(sys.argv[1], "w") as fh:
    json.dump(out, fh, indent=2)
    fh.write("\n")
EOF
  done
  m="$work/$side.median"
  filter_cells "$m/BENCH_micro_query.json" "$m/BENCH_micro_query.json" "$WARM"
  filter_cells "$m/BENCH_micro_shard.json" "$m/BENCH_micro_shard.json" "$SHARD"
  filter_cells "$m/BENCH_micro_tenant.json" "$m/BENCH_micro_tenant.json" \
    "$TENANT"
  filter_cells "$m/BENCH_micro_amm.json" "$m/BENCH_micro_amm.json" "$AMM"
done

status=0
for fig in "${MICROS[@]}"; do
  args=(${diff_args[@]+"${diff_args[@]}"})
  # Metrics cells sit in the single-digit-ns range where timer granularity
  # alone can swing a run several percent, so they gate at a looser 50%:
  # still catches "someone put a lock on the counter path" regressions.
  if [[ "$fig" == micro_metrics ]]; then args=(--threshold 0.5); fi
  python3 scripts/bench_diff.py "$work/base.median/BENCH_$fig.json" \
    "$work/change.median/BENCH_$fig.json" ${args[@]+"${args[@]}"} || status=1
done
exit $status
