#!/usr/bin/env sh
# The CI gate, runnable locally. Everything is offline: the workspace
# vendors its few dependencies as path crates under third_party/.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
# Besides clippy's defaults this enforces the secure-access discipline:
# raw `Bus` access in ptstore-kernel outside `src/channel.rs` is a
# `disallowed_methods` error (crates/kernel/clippy.toml), an exempted call
# site whose raw call is gone leaves its `#[expect]` unfulfilled, and every
# `#[allow]` must carry a `reason` (`allow_attributes_without_reason`,
# the workspace `[lints]` table).
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
# Our crates only — the vendored third_party crates are not held to our
# documentation bar.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet \
    -p ptstore-core -p ptstore-mem -p ptstore-mmu -p ptstore-isa \
    -p ptstore-kernel -p ptstore-trace -p ptstore-workloads \
    -p ptstore-attacks -p ptstore-fault -p ptstore-hwcost \
    -p ptstore-bench -p ptstore -p ptstore-modelcheck

echo "== cargo test =="
cargo test --offline --workspace -q

echo "== perfbench tests (benchmark builds against crates/ by path) =="
# perfbench/ is its own Cargo workspace, so the workspace test run above
# never compiles it; an API change that breaks the benchmark fails here.
CARGO_TARGET_DIR=target/perfbench cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== smoke: 2-hart security battery =="
cargo run --offline --quiet -p ptstore-bench --bin reproduce -- --quick --harts 2 security \
    | grep -q "PTStore (full design) blocks every attack"

echo "== smoke: sv48 security battery (scheme-independent verdicts) =="
cargo run --offline --quiet -p ptstore-bench --bin reproduce -- --quick --scheme sv48 security \
    | grep -q "PTStore (full design) blocks every attack"

echo "== scheme differential (sv39 goldens + sv48/sv57 verdict identity) =="
cargo test --offline -q -p ptstore-workloads --test scheme_differential

echo "== smoke: parallel runner determinism (whole quick suite) =="
# Experiments, and the (benchmark x config) points inside each, fan out
# through the one parallel map; results merge in input order, so a
# sequential run and a 4-job run of the whole 2-hart quick suite must
# compare byte-for-byte.
cargo build --offline --quiet --release -p ptstore-bench --bin reproduce
./target/release/reproduce --quick --harts 2 --jobs 1 all > target/all-1job.txt
./target/release/reproduce --quick --harts 2 --jobs 4 all > target/all-4job.txt
cmp target/all-1job.txt target/all-4job.txt
rm -f target/all-1job.txt target/all-4job.txt

echo "== smoke: c1m multi-tenant churn (deterministic, batching wins) =="
# The c1m report is fully modeled — no wall time in the output — so a
# rerun must be byte-identical, the batched rows must appear, and the
# in-process drain-policy sweep must report identical TLB digests.
./target/release/reproduce --quick c1m > target/c1m-a.txt
./target/release/reproduce --quick --jobs 4 c1m > target/c1m-b.txt
cmp target/c1m-a.txt target/c1m-b.txt
grep -q "CFI+PTStore batched" target/c1m-a.txt
grep -q "tlb-digest-identical=yes" target/c1m-a.txt
rm -f target/c1m-a.txt target/c1m-b.txt

echo "== policy differential: boundary vs watermark (state byte-identical) =="
# Drain policies are pure placement: a boundary run and a watermark run
# may move IPI rounds around, but every fork-stress row's post-run TLB
# digest — and the whole table below the headers — must be identical.
./target/release/reproduce --quick forkstress --drain-policy boundary \
    | grep "0x" > target/pol-boundary.txt
./target/release/reproduce --quick forkstress --drain-policy watermark:4 \
    | grep "0x" > target/pol-watermark.txt
cmp target/pol-boundary.txt target/pol-watermark.txt
rm -f target/pol-boundary.txt target/pol-watermark.txt

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
# dedup: a canon change that merges or splits states fails here.
./target/release/reproduce modelcheck --depth 4 > target/mc-a.txt
./target/release/reproduce modelcheck --depth 4 --jobs 4 > target/mc-b.txt
cmp target/mc-a.txt target/mc-b.txt
grep -q ": VERIFIED" target/mc-a.txt
grep -q "per depth: 1 7 59 522 4579)" target/mc-a.txt
grep -q "transitions      : 17670$" target/mc-a.txt
rm -f target/mc-a.txt target/mc-b.txt

echo "== modelcheck: default bound (>= 10^4 deduped states, 0 violations) =="
# The acceptance floor: the default depth-5 search over the full op
# alphabet explores at least ten thousand deduped states and every one of
# them satisfies every invariant.
./target/release/reproduce modelcheck --jobs 4 > target/mc-full.txt
grep -q ": VERIFIED" target/mc-full.txt
STATES=$(sed -n 's/^  states explored  : \([0-9]*\) .*/\1/p' target/mc-full.txt)
[ "$STATES" -ge 10000 ]
rm -f target/mc-full.txt

echo "== modelcheck: ablation counterexample (minimal, replayable) =="
# Removing the PMP S-bit check must flip the verdict and print the shrunk
# one-op attack trace with the containment violation it lands.
./target/release/reproduce modelcheck --depth 2 --ops mmap,fork,pte-flip \
    --ablate pmp_s_bit_check > target/mc-abl.txt
grep -q ": FALSIFIED" target/mc-abl.txt
grep -q "counterexample (1 ops" target/mc-abl.txt
grep -q "attack:pte-flip" target/mc-abl.txt
grep -q "PtPageOutsideRegion" target/mc-abl.txt
rm -f target/mc-abl.txt

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
