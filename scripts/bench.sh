#!/usr/bin/env sh
# Host-performance harness: times `reproduce --quick all` single-threaded
# and through the shared worker pool, the SMP experiment at 1/2/4 harts,
# and the C1M multi-tenant churn experiment (a drain-policy sweep: native
# + eager + one batched row per policy; c1m runs only when named
# explicitly, so `all` stays the same work as the pre-c1m baseline binary
# and the suite comparison is like-for-like). The quick shape is timed
# alongside the CI-budgeted --medium trajectory shape (150x8x50), giving a
# connections-per-host-second trajectory toward the paper's
# one-million-connection run. Results land in target/bench.json; the
# committed BENCH_PR*.json files are earlier runs, kept read-only as the
# history scripts/bench_history.sh charts. Modeled cycles are pinned
# elsewhere (the differential tests and the check.sh cmp gate); this
# script measures wall-clock only. The c1m report prints no wall time by
# design (check.sh cmp-gates its reruns), so its throughput in
# connections per host second is computed here, outside the deterministic
# output; the report's drain-policy sweep line (per-policy queue peaks
# and IPI counts) is lifted into the JSON.
#
# The shared CI container jitters by ~10% on multi-second timescales,
# so baseline-vs-current comparisons alternate the two binaries within
# one measurement loop and take each side's minimum — timing them in
# separate phases lets host drift masquerade as a code delta.
#
# Usage: scripts/bench.sh [jobs]   (default jobs: nproc)
set -eu

cd "$(dirname "$0")/.."

JOBS="${1:-$( (nproc || sysctl -n hw.ncpu || echo 2) 2>/dev/null )}"
OUT="target/bench.json"
BIN="target/release/reproduce"
# Rounds per timing loop; min-of-N on both binaries. Override with
# BENCH_ROUNDS when the container is jittery and the minimum needs more
# samples to converge.
ROUNDS="${BENCH_ROUNDS:-8}"

echo "== build (release) =="
cargo build --offline --release --quiet -p ptstore-bench --bin reproduce
mkdir -p target

# Milliseconds since epoch; /usr/bin/time is not in the container.
now_ms() {
    echo $(( $(date +%s%N) / 1000000 ))
}

one_run_ms() {
    bin="$1"
    shift
    start=$(now_ms)
    "$bin" "$@" > /dev/null
    end=$(now_ms)
    echo $((end - start))
}

# time_run <label> <args...>: times $BIN over $ROUNDS runs, echoes the
# minimum elapsed ms.
time_run() {
    label="$1"
    shift
    best=""
    for _ in $(seq "$ROUNDS"); do
        elapsed=$(one_run_ms "$BIN" "$@")
        if [ -z "$best" ] || [ "$elapsed" -lt "$best" ]; then
            best=$elapsed
        fi
    done
    echo "  $label: ${best} ms" >&2
    echo "$best"
}

# min_ms <current-best-or-empty> <candidate>: running minimum.
min_ms() {
    if [ -z "$1" ] || [ "$2" -lt "$1" ]; then
        echo "$2"
    else
        echo "$1"
    fi
}

# Baseline: the commit just before this PR, built in a throw-away
# worktree. It drains deferred shootdowns at security boundaries only
# (no policy knob), so baseline-vs-now at the same --jobs count is the
# honest measure of this PR's host-side work.
BASELINE_REF="${BENCH_BASELINE_REF:-b867a14}"
BASE_BIN=""
WT=".bench-baseline"
if git rev-parse --verify --quiet "$BASELINE_REF^{commit}" > /dev/null 2>&1; then
    git worktree remove --force "$WT" > /dev/null 2>&1 || true
    if git worktree add --detach "$WT" "$BASELINE_REF" > /dev/null 2>&1; then
        echo "== building baseline $BASELINE_REF =="
        if (cd "$WT" && CARGO_TARGET_DIR=target cargo build --offline \
                --release --quiet -p ptstore-bench --bin reproduce); then
            BASE_BIN="$WT/target/release/reproduce"
        else
            echo "  (baseline build failed; skipping)" >&2
        fi
    fi
else
    echo "  (baseline ref $BASELINE_REF not found; skipping)" >&2
fi

# All four quick-suite configurations rotate within ONE loop so each
# minimum is drawn from the same stretch of host time — separate phases
# let container drift masquerade as a code delta.
BASE_SINGLE_MS=""
BASE_JOBS_MS=""
SINGLE_MS=""
JOBS_MS=""
echo "== timing reproduce --quick all =="
for _ in $(seq "$ROUNDS"); do
    if [ -n "$BASE_BIN" ]; then
        BASE_SINGLE_MS=$(min_ms "$BASE_SINGLE_MS" "$(one_run_ms "$BASE_BIN" --quick all)")
        BASE_JOBS_MS=$(min_ms "$BASE_JOBS_MS" "$(one_run_ms "$BASE_BIN" --quick --jobs "$JOBS" all)")
    fi
    SINGLE_MS=$(min_ms "$SINGLE_MS" "$(one_run_ms "$BIN" --quick all)")
    JOBS_MS=$(min_ms "$JOBS_MS" "$(one_run_ms "$BIN" --quick --jobs "$JOBS" all)")
done
BASE_SINGLE_MS="${BASE_SINGLE_MS:-null}"
BASE_JOBS_MS="${BASE_JOBS_MS:-null}"
echo "  baseline: 1 job ${BASE_SINGLE_MS} ms, $JOBS jobs ${BASE_JOBS_MS} ms" >&2
echo "  current:  1 job ${SINGLE_MS} ms, $JOBS jobs ${JOBS_MS} ms" >&2

# C1M throughput: the experiment itself prints only modeled values;
# host wall time (and hence connections per host second, across the
# four sweep rows: native + eager + two batched policies) is measured
# here. The quick shape serves 1 800 connections per row, the medium
# trajectory shape 60 000 — together they chart connections-per-host-
# second on the road to the paper's one-million-connection run.
echo "== timing reproduce --quick c1m =="
C1M_MS=$(time_run "c1m quick" --quick c1m)
C1M_CONNECTIONS=$((4 * 1800))
if [ "$C1M_MS" -gt 0 ]; then
    C1M_CONN_PER_SEC=$((C1M_CONNECTIONS * 1000 / C1M_MS))
else
    C1M_CONN_PER_SEC=null
fi
echo "  c1m: ${C1M_CONNECTIONS} connections in ${C1M_MS} ms (${C1M_CONN_PER_SEC}/s)" >&2

# The drain-policy sweep line from the deterministic report, lifted
# verbatim into the JSON artifact (queue peaks and IPI counts are
# modeled, so one capture run is enough).
C1M_SWEEP=$("$BIN" --quick c1m | grep "^drain-policy sweep:" || echo "")
echo "  $C1M_SWEEP" >&2

# Medium trajectory shape: 33x the quick connection count per row.
echo "== timing reproduce --medium c1m =="
C1M_MED_MS=$(time_run "c1m medium" --medium c1m)
C1M_MED_CONNECTIONS=$((4 * 60000))
if [ "$C1M_MED_MS" -gt 0 ]; then
    C1M_MED_CONN_PER_SEC=$((C1M_MED_CONNECTIONS * 1000 / C1M_MED_MS))
else
    C1M_MED_CONN_PER_SEC=null
fi
echo "  c1m medium: ${C1M_MED_CONNECTIONS} connections in ${C1M_MED_MS} ms (${C1M_MED_CONN_PER_SEC}/s)" >&2

echo "== timing reproduce --quick smp: harts =="
SMP_JSON=""
for H in 1 2 4; do
    ms=$(time_run "harts $H" --quick --harts "$H" smp)
    SMP_JSON="${SMP_JSON}${SMP_JSON:+, }\"harts${H}\": $ms"
done

git worktree remove --force "$WT" > /dev/null 2>&1 || true

# Integer-permille speedups, rendered as fixed-point (avoids awk/bc).
ratio() {
    if [ "$1" = null ] || [ "$2" = null ]; then
        echo null
    elif [ "$2" -gt 0 ]; then
        permille=$((1000 * $1 / $2))
        echo "$((permille / 1000)).$(printf '%03d' $((permille % 1000)))"
    else
        echo "0.000"
    fi
}
JOBS_SPEEDUP=$(ratio "$SINGLE_MS" "$JOBS_MS")
THREADED_SPEEDUP=$(ratio "$BASE_JOBS_MS" "$JOBS_MS")
SINGLE_SPEEDUP=$(ratio "$BASE_SINGLE_MS" "$SINGLE_MS")

cat > "$OUT" <<EOF
{
  "wall_ms": $JOBS_MS,
  "jobs": $JOBS,
  "quick_all_ms": {
    "baseline_${BASELINE_REF}_1job": $BASE_SINGLE_MS,
    "baseline_${BASELINE_REF}_${JOBS}jobs": $BASE_JOBS_MS,
    "single_1job": $SINGLE_MS,
    "pooled_${JOBS}jobs": $JOBS_MS
  },
  "smp_quick_ms": { $SMP_JSON },
  "c1m_quick": {
    "wall_ms": $C1M_MS,
    "connections": $C1M_CONNECTIONS,
    "connections_per_host_sec": $C1M_CONN_PER_SEC
  },
  "c1m_medium": {
    "wall_ms": $C1M_MED_MS,
    "connections": $C1M_MED_CONNECTIONS,
    "connections_per_host_sec": $C1M_MED_CONN_PER_SEC
  },
  "drain_policy_sweep": "$C1M_SWEEP",
  "speedup": {
    "threaded_quick_suite": $THREADED_SPEEDUP,
    "single_vs_baseline": $SINGLE_SPEEDUP,
    "jobs": $JOBS_SPEEDUP
  }
}
EOF

echo "== $OUT =="
cat "$OUT"
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$OUT" > /dev/null
    echo "($OUT parses as JSON)"
fi
echo "speedup: threaded quick suite ${THREADED_SPEEDUP}x vs baseline $BASELINE_REF, single ${SINGLE_SPEEDUP}x, --jobs $JOBS ${JOBS_SPEEDUP}x"
