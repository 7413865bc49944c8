#!/usr/bin/env sh
# The CI gate, runnable locally. Everything is offline: the workspace
# vendors its few dependencies as path crates under third_party/.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== no serde derives or imports =="
# The vendored serde stand-in's derives emit no code and nothing in-tree
# serialises through serde (JSON is hand-rolled in ptstore-trace), so a
# derive, import or attribute that comes back is dead weight.
if grep -rnE --include='*.rs' 'Serialize|Deserialize|serde::|#\[serde' crates tests examples; then
    echo "serde derive, import or attribute found (listed above)" >&2
    exit 1
fi

echo "== cargo clippy (-D warnings) =="
# Every cargo step of the workspace runs with `--locked`: a change that
# adds or drops a dependency edge fails with "cannot update the lock file"
# instead of silently rewriting the root Cargo.lock.
# Besides clippy's defaults this enforces the secure-access discipline:
# raw `Bus` access in ptstore-kernel outside `src/channel.rs` is a
# `disallowed_methods` error (crates/kernel/clippy.toml), an exempted call
# site whose raw call is gone leaves its `#[expect]` unfulfilled, and every
# `#[allow]` must carry a `reason` (`allow_attributes_without_reason`,
# the workspace `[lints]` table).
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
# Every workspace crate but the vendored third_party ones, which are not
# held to our documentation bar; a crate added under crates/ is documented
# without editing this list.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps --quiet --workspace \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive

echo "== cargo test =="
cargo test --offline --locked --workspace -q

echo "== perfbench tests (benchmark builds against crates/ by path) =="
# perfbench/ is its own Cargo workspace, so the workspace test run above
# never compiles it; an API change that breaks the benchmark fails here.
# `--locked` turns a change that would rewrite perfbench/Cargo.lock (a
# dependency edge added or dropped inside the benchmark's build graph)
# into a failure instead of a silent edit of the benchmark's lock file.
CARGO_TARGET_DIR=target/perfbench cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "== perfbench: one short round of each workload =="
# Each workload checks its own output as it runs (explore() and the
# benchmark's outside BFS must agree, say), and the tests above run no
# workload, so a change that breaks such a check fails here rather than
# first in the benchmark run.
CARGO_TARGET_DIR=target/perfbench cargo build --offline --locked -q --release --manifest-path perfbench/Cargo.toml
for workload in tenant-churn fork-storm translate-scan modelcheck-bfs; do
    ./target/perfbench/release/perfbench --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        > target/perfbench-round.txt
    tail -n 1 target/perfbench-round.txt | grep -qF '"correct": true'
done
rm -f target/perfbench-round.txt

echo "== smoke: 2-hart security battery =="
cargo run --offline --locked --quiet -p ptstore-bench --bin reproduce -- --quick --harts 2 security \
    | grep -q "PTStore (full design) blocks every attack"

echo "== smoke: sv48 security battery (scheme-independent verdicts) =="
cargo run --offline --locked --quiet -p ptstore-bench --bin reproduce -- --quick --scheme sv48 security \
    | grep -q "PTStore (full design) blocks every attack"

echo "== scheme differential (sv39 goldens + sv48/sv57 verdict identity) =="
cargo test --offline --locked -q -p ptstore-workloads --test scheme_differential

echo "== smoke: parallel runner determinism (whole quick suite) =="
# Experiments, and the (benchmark x config) points inside each, fan out
# through the one parallel map; results merge in input order, so a
# sequential run and a 4-job run of the whole 2-hart quick suite must
# compare byte-for-byte.
cargo build --offline --locked --quiet --release -p ptstore-bench --bin reproduce
./target/release/reproduce --quick --harts 2 --jobs 1 all > target/all-1job.txt
./target/release/reproduce --quick --harts 2 --jobs 4 all > target/all-4job.txt
cmp target/all-1job.txt target/all-4job.txt
rm -f target/all-1job.txt target/all-4job.txt

echo "== smoke: c1m multi-tenant churn (deterministic, batching wins) =="
# The c1m report is fully modeled — no wall time in the output — so a
# rerun must be byte-identical. Both batched rows and the sweep line are
# pinned exactly: a watermark drain that loses a queued invalidation
# coalesces fewer pages and moves the watermark row's cycles.
./target/release/reproduce --quick c1m > target/c1m-a.txt
./target/release/reproduce --quick --jobs 4 c1m > target/c1m-b.txt
cmp target/c1m-a.txt target/c1m-b.txt
grep -Eq "^CFI\+PTStore batched/boundary +14669652 +-2\.29 +0\.123 +120 +120 +120 +2280 +19 +0 +0$" target/c1m-a.txt
grep -Eq "^CFI\+PTStore batched/watermark:8 +14783652 +-1\.53 +0\.122 +360 +360 +360 +2280 +8 +240 +0$" target/c1m-a.txt
grep -qxF "drain-policy sweep: boundary maxq=19 ipis=120 watermark:8 maxq=8 ipis=360" target/c1m-a.txt
rm -f target/c1m-a.txt target/c1m-b.txt

echo "== north star: c1m --medium (tenant-churn figures) =="
# The medium c1m shape is the one the tenant-churn benchmark anchors to.
# Its batched/boundary row must keep the wall cycles, overhead, shootdowns
# and IPIs the anchor checks, so a change that moves them fails here.
./target/release/reproduce --medium c1m > target/c1m-medium.txt
grep -Eq "^CFI\+PTStore batched/boundary +446064574 +2\.46 +[0-9.]+ +3600 +3600 " target/c1m-medium.txt
rm -f target/c1m-medium.txt

echo "== paper-scale fork stress (§V-D1 figures) =="
# 30,000 processes alive at once. The CFI+PTStore row must keep the cycle
# total, overhead and adjustment count EXPERIMENTS.md quotes. Exit and
# wait cost does not grow with the live set, so this runs in seconds.
./target/release/reproduce forkstress > target/forkstress.txt
grep -Eq "^CFI\+PTStore +434639726 +6\.96 +33 " target/forkstress.txt
rm -f target/forkstress.txt

echo "== ablations (the figures EXPERIMENTS.md quotes) =="
# Both ablations are modeled, so the rows EXPERIMENTS.md quotes are exact:
# the region-size sweep adjusts once up to 4 MiB and never from 8 MiB on,
# and virtual isolation pays its write-window toll on fork+exit.
./target/release/reproduce ablation > target/ablation.txt
grep -Eq "^initial +4 MiB: overhead +9\.88% +adjustments +1$" target/ablation.txt
grep -Eq "^initial +8 MiB: overhead +0\.95% +adjustments +0$" target/ablation.txt
grep -Eq "^virtual-isolation +fork\+exit overhead +20\.75%$" target/ablation.txt
rm -f target/ablation.txt

echo "== paper-scale reproduce all (the run EXPERIMENTS.md quotes) =="
# reproduce_paper_scale.txt is the recorded paper-scale run the figures in
# EXPERIMENTS.md come from. Every experiment in it is modeled, so a rerun
# must match it line for line, except Table I's "Ours LoC" cells: they
# count this repository's own source and move with every kernel change.
mask_loc() {
    sed -E 's/^((RISC-V Processor|LLVM Back-end|Linux Kernel) .*[^ ]) +[0-9]+(  ptstore-)/\1 LOC\3/' "$1"
}
./target/release/reproduce all > target/paper-scale.txt
mask_loc reproduce_paper_scale.txt > target/paper-scale-want.txt
mask_loc target/paper-scale.txt > target/paper-scale-got.txt
diff -u target/paper-scale-want.txt target/paper-scale-got.txt
rm -f target/paper-scale.txt target/paper-scale-want.txt target/paper-scale-got.txt

echo "== fuzz campaign figures (the report EXPERIMENTS.md quotes) =="
# The 200-fault campaign's totals and per-class rows, as EXPERIMENTS.md
# quotes them: a change that moves a fault to another class, or lets one
# through, fails here.
./target/release/reproduce fuzz --seed 1 --faults 200 \
    | sed -n '/detected-and-contained/,/watermark-skip/p' > target/fuzz-200.txt
cat > target/fuzz-200-want.txt <<'ROWS'
  detected-and-contained : 109
  benign                 : 91
  invariant-violated     : 0
  per fault class:
    pte-bit-flip detected=20 benign=3 violated=0
    pmp-csr-corrupt detected=23 benign=0 violated=0
    satp-corrupt detected=22 benign=0 violated=0
    ipi-drop detected=0 benign=22 violated=0
    ipi-reorder detected=0 benign=22 violated=0
    zone-exhaust detected=22 benign=0 violated=0
    token-forge detected=22 benign=0 violated=0
    drain-drop detected=0 benign=22 violated=0
    watermark-skip detected=0 benign=22 violated=0
ROWS
diff -u target/fuzz-200-want.txt target/fuzz-200.txt
rm -f target/fuzz-200.txt target/fuzz-200-want.txt

echo "== smoke: fixed-seed fuzz campaign (deterministic, contained) =="
# The 70-fault round-robin covers all nine classes, including the PR 9
# drain-machinery pair; drain-drop must land (and stay contained) on
# every rerun byte-for-byte.
./target/release/reproduce fuzz --seed 1 --faults 70 > target/fuzz-a.txt
./target/release/reproduce fuzz --seed 1 --faults 70 > target/fuzz-b.txt
cmp target/fuzz-a.txt target/fuzz-b.txt
grep -q "invariant-violated     : 0" target/fuzz-a.txt
grep -q "drain-drop" target/fuzz-a.txt
grep -q "watermark-skip" target/fuzz-a.txt
rm -f target/fuzz-a.txt target/fuzz-b.txt

echo "== modelcheck: jobs determinism at a mid bound (byte-identical) =="
# The bounded search report prints no timing, host, or thread-count
# information, so a sequential run and a 4-job run of the same search must
# compare byte-for-byte — the same `cmp` discipline as the parallel runner.
# The per-depth counts and transition total pin the canonical encoding's
# dedup: a canon change that merges or splits states fails here. The
# exploration hash also covers each hart's mailbox records (sender and
# kind), which every IPI round posts, so a change to what a shootdown
# posts fails here too.
./target/release/reproduce modelcheck --depth 4 > target/mc-a.txt
./target/release/reproduce modelcheck --depth 4 --jobs 4 > target/mc-b.txt
cmp target/mc-a.txt target/mc-b.txt
grep -q ": VERIFIED" target/mc-a.txt
grep -q "per depth: 1 7 59 522 4579)" target/mc-a.txt
grep -q "transitions      : 17670$" target/mc-a.txt
grep -q "exploration hash : 0x24d5d1d7df5b9660$" target/mc-a.txt
rm -f target/mc-a.txt target/mc-b.txt

echo "== modelcheck: default bound (>= 10^4 deduped states, 0 violations) =="
# The acceptance floor: the default depth-5 search over the full op
# alphabet explores at least ten thousand deduped states and every one of
# them satisfies every invariant. The exact per-depth counts and
# transition total pin the canonical state's dedup classes at this bound,
# and the exploration hash the states themselves, as the depth-4 step
# does at its own.
./target/release/reproduce modelcheck --jobs 4 > target/mc-full.txt
grep -q ": VERIFIED" target/mc-full.txt
STATES=$(sed -n 's/^  states explored  : \([0-9]*\) .*/\1/p' target/mc-full.txt)
[ "$STATES" -ge 10000 ]
grep -q "per depth: 1 7 59 522 4579 39915)" target/mc-full.txt
grep -q "transitions      : 155040$" target/mc-full.txt
grep -q "exploration hash : 0x3be93b0950ac7dd3$" target/mc-full.txt
rm -f target/mc-full.txt

echo "== modelcheck: depth 6 (one level past the default bound) =="
# 389,771 deduped states and 1,352,490 transitions, every state VERIFIED.
# A successor machine shares its parent's physical-memory chunks until it
# writes one, so this level runs in about half a minute at --jobs 4 on a
# 2-core host. The counts and the hash pin the search as the two steps
# above do at their bounds.
./target/release/reproduce modelcheck --depth 6 --jobs 4 > target/mc-d6.txt
grep -q ": VERIFIED" target/mc-d6.txt
grep -q "per depth: 1 7 59 522 4579 39915 344688)" target/mc-d6.txt
grep -q "transitions      : 1352490$" target/mc-d6.txt
grep -q "exploration hash : 0x168c5ce97ae13644$" target/mc-d6.txt
rm -f target/mc-d6.txt

echo "== modelcheck: ablation counterexamples (minimal, replayable) =="
# Removing any one of the three checks must flip the verdict and print the
# shrunk one-op attack trace with the violation it lands; the exploration
# hash pins the search that found it. Arguments: the modelcheck flags
# (split on spaces), the attack op, the violation, the hash.
pin_ablation() {
    ./target/release/reproduce modelcheck $1 > target/mc-abl.txt
    grep -q ": FALSIFIED" target/mc-abl.txt
    grep -q "counterexample (1 ops" target/mc-abl.txt
    grep -qF "0: $2" target/mc-abl.txt
    grep -qF "$3" target/mc-abl.txt
    grep -q "exploration hash : $4\$" target/mc-abl.txt
    rm -f target/mc-abl.txt
}
pin_ablation "--depth 2 --ops mmap,fork,pte-flip --ablate pmp_s_bit_check" \
    "attack:pte-flip" PtPageOutsideRegion 0xe7692baad1ccdf21
pin_ablation "--ops mmap,fork,satp --ablate ptw_origin_check" \
    "attack:satp-corrupt(h0)" SatpRootMismatch 0xa4c62c6ce4e0564f
pin_ablation "--ops mmap,fork,forge --ablate token_checks" \
    "attack:token-forge(h0)" SatpRootMismatch 0xb8093654ddf5ae34

echo "== bench_history: BENCH_PR*.json trajectory collation =="
# The collator depends only on the committed artifacts, so two runs are
# byte-identical and the table must reach the newest artifact.
scripts/bench_history.sh > target/hist-a.txt
scripts/bench_history.sh > target/hist-b.txt
cmp target/hist-a.txt target/hist-b.txt
grep -q "PR9" target/hist-a.txt
rm -f target/hist-a.txt target/hist-b.txt
if command -v python3 > /dev/null 2>&1; then
    scripts/bench_history.sh --json | python3 -m json.tool > /dev/null
fi

echo "== host-performance harness (target/bench.json) =="
# Jobs pinned to 4 so every run times the same configuration (the pool
# clamps to the host's cores). The report lands under target/, so the
# committed BENCH_PR*.json history stays untouched.
scripts/bench.sh 4
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool target/bench.json > /dev/null
fi

echo "All checks passed."
