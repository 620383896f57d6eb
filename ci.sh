#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repository root.
#
# The clippy step denies warnings on the crates that carry the
# panic-free contract (`nncell-obs`, `nncell-lp`, `nncell-core`,
# including the `vfs`/`wal`/`durable`/`memtable` modules and the fold
# machinery in `shard`); their crate-level `#![warn(clippy::unwrap_used)]`
# is promoted to an error here, so an `unwrap()` in library code fails
# the gate while tests stay exempt.
#
# The crash-injection suite runs under a pinned fault-schedule seed so a
# red CI run is reproducible locally; override with e.g.
#   NNCELL_FAULT_SEED=12345 ./ci.sh
# to sweep a different tear pattern.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests (whole workspace) =="
# Every member crate's suite, not only the root package: the shard, cell,
# WAL and traversal proptests, memtable_chaos, engine_parity, alloc_free
# and the obs trace tests guard the write path and the query plans. The
# named steps below re-run their suites so a red run says which one.
cargo test -q --workspace

echo "== crash injection (kill-at-every-syscall, seed ${NNCELL_FAULT_SEED:=424242}) =="
NNCELL_FAULT_SEED="$NNCELL_FAULT_SEED" cargo test -q --test crash_recovery

echo "== server robustness E2E (storm/shed, kill -9 recovery, SIGTERM drain) =="
# Subprocess tests against the real binary: admission control sheds a
# 2x-capacity storm with 429s, SIGKILL mid-write-storm recovers every
# acked insert bit-identically, SIGTERM drains and checkpoints leaving
# zero WAL replay debt, a directory in the earlier unsharded layout
# serves and takes writes, and `serve --tail-max 0` is refused. Every
# serving surface answers alike: `serve --index FILE` (a snapshot, one
# shard) and `serve --index DIR` (a plain sharded directory) answer
# /query bit-identically to `nncell query` on the same path and, not
# being durable, refuse /insert and /remove with 403 read_only; `stats
# --index FILE` reports the shard="0" series. The in-process suite adds
# the split head/body shed test (a clean 429 then EOF, never a reset)
# and the whole-request read deadline against a trickling client.
cargo test -q -p nncell-cli --test server_e2e
cargo test -q -p nncell-server

echo "== one query path: tree walk vs linear scan (proptest) =="
# Every finite query takes the point-tree walk — there is no scan
# branch — so this proof carries the bit-identity claim: ids and
# distance bits equal to the linear scan for k-NN and radius queries,
# including centres outside the unit cube and k at or past the live
# count, unsharded and sharded (S = 1, 3) with a non-empty memtable tail.
cargo test -q -p nncell-core --test proptest_traversal

echo "== NN-Direction one-pass gather vs brute-force oracle (proptest) =="
# CellSet::build gathers each cell's NN-Direction rivals in one pruned tree
# walk; this proves it finds every halfspace minimum and the exact
# top-(8·d+1) by (d², id), for d in {1, 2, 3, 8, 16}, on lattice ties,
# halfspace-boundary points and trees after removes.
cargo test -q -p nncell-core --lib strategy::

echo "== clippy (panic-free library crates) =="
cargo clippy -p nncell-obs -p nncell-lp -p nncell-core -p nncell-server -p nncell-index --lib -- -D warnings -D clippy::unwrap_used

echo "== query-engine bench smoke (fixed seed; writes BENCH_query_engine.json) =="
# Sequential vs parallel batch QPS on one fixed-seed workload; the bench
# itself asserts the parallel pass is bit-identical to the sequential one.
# Each timed pass is best-of-two, and the metrics A/B interleaves its
# control and instrumented arms, so the reported `metrics_overhead` is a
# real instrumentation tax (single-digit percent; the obs microbenches
# put it at tens of nanoseconds per record), not a one-off scheduler
# stall or allocator drift landing in one arm's numerator.
# CI runs a smoke scale that finishes in seconds on a small box; unset the
# overrides to run the bench's full default workload (100k points, d=16,
# 10k queries) on real hardware.
NNCELL_N="${NNCELL_N:-8000}" NNCELL_DIM="${NNCELL_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_QUERIES:-5000}" \
    cargo bench -p nncell-bench --bench query_engine

echo "== decomposition ablation smoke (pieces sweep; writes BENCH_ablation_decompose.json) =="
# Decomposition depth vs cell build cost vs cell candidates — the
# experiment behind leaving `decompose_pieces` unset. The bench asserts
# every decomposed cell set answers bit-identically to the undecomposed
# one. CI shrinks the sweep so the deepest build stays fast;
# unset the overrides for the committed full sweep {1,2,4,8}.
NNCELL_N="${NNCELL_ABLATION_N:-1000}" NNCELL_DIM="${NNCELL_ABLATION_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_ABLATION_QUERIES:-500}" \
    NNCELL_PIECES_SWEEP="${NNCELL_PIECES_SWEEP:-1,4}" \
    NNCELL_BENCH_OUT="${NNCELL_ABLATION_OUT:-$PWD/target/BENCH_ablation_decompose.json}" \
    cargo bench -p nncell-bench --bench ablation_decompose

echo "== sharded bench smoke (S=1,2,4; writes BENCH_sharded.json) =="
# Build + merged-batch QPS at several shard counts; the bench asserts every
# sharded pass is bit-identical to the S=1 pass, so this doubles as an
# end-to-end exactness check of the fan-out/merge path. Same smoke-scale
# philosophy as the query-engine bench above.
NNCELL_N="${NNCELL_SHARD_N:-8000}" NNCELL_DIM="${NNCELL_SHARD_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_SHARD_QUERIES:-2000}" \
    cargo bench -p nncell-bench --bench sharded

echo "== server bench smoke (HTTP QPS/p99/shed rate; writes BENCH_server.json) =="
# End-to-end serving throughput over real sockets plus overload behaviour
# at 2x capacity; the bench asserts every refused request is a clean
# `429 Retry-After`, never a dropped connection. Same smoke-scale
# philosophy as the benches above.
NNCELL_N="${NNCELL_SERVER_N:-4000}" NNCELL_DIM="${NNCELL_SERVER_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_SERVER_QUERIES:-800}" \
    NNCELL_SERVER_OVERLOAD_MS="${NNCELL_SERVER_OVERLOAD_MS:-800}" \
    cargo bench -p nncell-bench --bench server

echo "== build-scaling bench smoke (serving build vs NN-Direction cells) =="
# Times the serving build (validation + one STR load of the point tree)
# beside the offline NN-Direction CellSet::build, and parity-checks both
# the engine and the cell query against a linear scan. CI runs a
# seconds-long smoke ladder and writes the JSON to target/ so it never
# clobbers the committed full-scale BENCH_build_scaling.json; to
# regenerate that file, run the bench with all overrides unset
# (defaults: n ∈ {8k, 32k, 128k}, d=8 — a few minutes on one core,
# nearly all of it the cell builds):
#   cargo bench -p nncell-bench --bench build_scaling
NNCELL_BUILD_NS="${NNCELL_BUILD_NS:-1000,2000}" \
    NNCELL_BENCH_OUT="${NNCELL_BUILD_SCALING_OUT:-$PWD/target/BENCH_build_scaling.json}" \
    cargo bench -p nncell-bench --bench build_scaling

echo "== mixed read/write bench (O(1) ack vs index size; writes BENCH_mixed.json) =="
# The LSM write-path contract, asserted by the bench itself at d=8: the
# insert/remove ack p99 through the memtable tail must stay flat across
# n ∈ {2k, 8k, 32k} (within 10x of the smallest size, 50 µs noise
# floor), the fold's records/s must stay flat by the same 10x rule, and
# tail-merged answers must be bit-identical to the folded answers. Runs
# the full default sizes (seconds) so the committed JSON proves the
# headline claim; NNCELL_MIXED_NS=500,2000 gives a quick local smoke.
cargo bench -p nncell-bench --bench mixed

echo "== public API surface gate =="
# tests/api_surface.rs dumps every `pub` item and compares against the
# committed snapshot; regenerate deliberately with
#   NNCELL_BLESS=1 cargo test --test api_surface
cargo test -q --test api_surface

echo "== bench regression gate (sequential QPS vs committed baseline) =="
# Compare the fresh run against the last committed BENCH_query_engine.json.
# A drop of more than 25% in sequential QPS fails the gate; smaller swings
# are treated as machine noise. Skipped when there is no committed baseline
# (first run on a new checkout or the file was never committed).
if baseline_json=$(git show HEAD:BENCH_query_engine.json 2>/dev/null); then
    extract_qps() { grep -o '"seq_qps": *[0-9.]*' | tr -dc '0-9.\n' | head -n1; }
    old_qps=$(printf '%s' "$baseline_json" | extract_qps)
    cur_qps=$(extract_qps < BENCH_query_engine.json)
    if [ -z "$old_qps" ] || [ -z "$cur_qps" ]; then
        echo "bench gate: could not parse seq_qps (old='$old_qps' cur='$cur_qps')" >&2
        exit 1
    fi
    awk -v old="$old_qps" -v cur="$cur_qps" 'BEGIN {
        floor = 0.75 * old;
        printf "bench gate: seq_qps %.2f vs baseline %.2f (floor %.2f)\n", cur, old, floor;
        if (cur < floor) {
            printf "bench gate: FAIL — sequential QPS dropped more than 25%%\n";
            exit 1;
        }
    }'
else
    echo "bench gate: no committed BENCH_query_engine.json baseline; skipping"
fi

echo "== candidate-count gate (mean_candidates vs committed baseline) =="
# The MINDIST traversal + early-abort kernel's headline claim is how few
# candidates survive to a *completed* distance evaluation. The fresh smoke
# run's mean_candidates may exceed the committed baseline by at most 10%;
# a bigger jump means the pruning bounds or the traversal order regressed
# even if QPS happens to hide it. Skipped without a committed baseline.
if baseline_json=$(git show HEAD:BENCH_query_engine.json 2>/dev/null); then
    extract_cands() { grep -o '"mean_candidates": *[0-9.]*' | tr -dc '0-9.\n' | head -n1; }
    old_cands=$(printf '%s' "$baseline_json" | extract_cands)
    cur_cands=$(extract_cands < BENCH_query_engine.json)
    if [ -z "$old_cands" ] || [ -z "$cur_cands" ]; then
        echo "candidate gate: could not parse mean_candidates (old='$old_cands' cur='$cur_cands')" >&2
        exit 1
    fi
    awk -v old="$old_cands" -v cur="$cur_cands" 'BEGIN {
        ceil = 1.10 * old;
        printf "candidate gate: mean_candidates %.2f vs baseline %.2f (ceiling %.2f)\n", cur, old, ceil;
        if (cur > ceil) {
            printf "candidate gate: FAIL — candidate count regressed more than 10%%\n";
            exit 1;
        }
    }'
else
    echo "candidate gate: no committed BENCH_query_engine.json baseline; skipping"
fi

echo "== tracing-overhead gate (sampling-off QPS within 2% of committed baseline) =="
# The tracing hot path with sampling off is one thread-local flag read
# per span site (plus one relaxed atomic load per request root) — cheap
# enough that sequential QPS must stay within 2% of the committed
# baseline, a far tighter bar than the 25% regression floor above. The
# committed BENCH_query_engine.json was blessed with the instrumentation
# in place, so a failure here means someone made the *disabled* path
# expensive (an allocation, a lock, a syscall), not that tracing exists.
if baseline_json=$(git show HEAD:BENCH_query_engine.json 2>/dev/null); then
    extract_qps() { grep -o '"seq_qps": *[0-9.]*' | tr -dc '0-9.\n' | head -n1; }
    old_qps=$(printf '%s' "$baseline_json" | extract_qps)
    cur_qps=$(extract_qps < BENCH_query_engine.json)
    if [ -z "$old_qps" ] || [ -z "$cur_qps" ]; then
        echo "tracing gate: could not parse seq_qps (old='$old_qps' cur='$cur_qps')" >&2
        exit 1
    fi
    awk -v old="$old_qps" -v cur="$cur_qps" 'BEGIN {
        floor = 0.98 * old;
        printf "tracing gate: seq_qps %.2f vs baseline %.2f (floor %.2f)\n", cur, old, floor;
        if (cur < floor) {
            printf "tracing gate: FAIL — sampling-off QPS more than 2%% under baseline\n";
            exit 1;
        }
    }'
else
    echo "tracing gate: no committed BENCH_query_engine.json baseline; skipping"
fi

echo "== build-time regression gate (build_seconds vs committed baseline) =="
# The serving build (validation + one STR load of the point tree) is what
# every build, load and `nncell build` pays; guard it the same way as
# query throughput. The fresh smoke run's build_seconds may exceed the
# committed baseline by at most 25%. Skipped when there is no committed
# baseline.
if baseline_json=$(git show HEAD:BENCH_query_engine.json 2>/dev/null); then
    extract_build_s() { grep -o '"build_seconds": *[0-9.]*' | tr -dc '0-9.\n' | head -n1; }
    old_build=$(printf '%s' "$baseline_json" | extract_build_s)
    cur_build=$(extract_build_s < BENCH_query_engine.json)
    if [ -z "$old_build" ] || [ -z "$cur_build" ]; then
        echo "build gate: could not parse build_seconds (old='$old_build' cur='$cur_build')" >&2
        exit 1
    fi
    awk -v old="$old_build" -v cur="$cur_build" 'BEGIN {
        ceil = 1.25 * old;
        printf "build gate: build_seconds %.2f vs baseline %.2f (ceiling %.2f)\n", cur, old, ceil;
        if (cur > ceil) {
            printf "build gate: FAIL — build time regressed more than 25%%\n";
            exit 1;
        }
    }'
else
    echo "build gate: no committed BENCH_query_engine.json baseline; skipping"
fi

echo "== server bench gate (HTTP QPS vs committed baseline) =="
# Same idea as above for the serving layer, with a looser 50% floor: the
# end-to-end number includes connection setup, JSON parsing, and thread
# scheduling, so it is noisier than the in-process QPS gate.
if baseline_json=$(git show HEAD:BENCH_server.json 2>/dev/null); then
    extract_http_qps() { grep -o '"qps": *[0-9.]*' | tr -dc '0-9.\n' | head -n1; }
    old_qps=$(printf '%s' "$baseline_json" | extract_http_qps)
    cur_qps=$(extract_http_qps < BENCH_server.json)
    if [ -z "$old_qps" ] || [ -z "$cur_qps" ]; then
        echo "server bench gate: could not parse qps (old='$old_qps' cur='$cur_qps')" >&2
        exit 1
    fi
    awk -v old="$old_qps" -v cur="$cur_qps" 'BEGIN {
        floor = 0.50 * old;
        printf "server bench gate: qps %.2f vs baseline %.2f (floor %.2f)\n", cur, old, floor;
        if (cur < floor) {
            printf "server bench gate: FAIL — HTTP QPS dropped more than 50%%\n";
            exit 1;
        }
    }'
else
    echo "server bench gate: no committed BENCH_server.json baseline; skipping"
fi

echo "ci: all green"
