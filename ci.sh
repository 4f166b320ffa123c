#!/usr/bin/env bash
# Local CI: exactly what .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")"

# The workspace is std-only: nothing below may need a registry or the
# network, so every cargo step runs --offline.
echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# One implementation per primitive (DESIGN.md §3): every package in the
# graph is a path package, and no manifest outside e2e/ asks a registry
# for a version. `bytes` resolves by path to e2e/stubs/bytes until the
# [benchmark] PR replaces it at the Transport seam.
echo "==> no registry crate in the graph, no version-string dependency in a manifest"
sources="$(cargo metadata --offline --format-version 1 | grep -o '"source":"[^"]*"' | sort -u || true)"
if [[ -n "$sources" ]]; then
  echo "$sources"
  echo "a package with a registry or git source is in the graph (see above)" >&2
  exit 1
fi
versioned="$(find . \( -name target -o -name .bench_build -o -name .git -o -path ./e2e \) -prune \
  -o -name Cargo.toml -print0 | xargs -0 awk '
    /^\[/ { dep = ($0 ~ /dependencies/) }
    dep && (/^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/ || /version[[:space:]]*=/) {
      print FILENAME ": " $0 }')"
if [[ -n "$versioned" ]]; then
  echo "$versioned"
  echo "a Cargo.toml outside e2e/ names a version-string dependency (see above)" >&2
  exit 1
fi

# ROADMAP aim 2 counts deleted code: print the non-test source lines of
# every crate (lines above the first #[cfg(test)] of each src/**/*.rs).
echo "==> non-test source lines per crate"
for c in crates/*/; do
  find "$c/src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$c")" '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { printf "%-14s %6d\n", crate, n }'
done

# PR 15 deleted the per-key node arm, the scalar-kernel switch and the
# owned burst codec; EXPERIMENTS.md's "Retired A/B arms" table is the one
# place their names may still appear.
echo "==> retired hot-path twins stay retired"
if grep -rnE "pull_cached_legacy|push_cached_legacy|scalar_kernels|build_scalar|Request::Pull|Request::Push|Response::Weights|legacy-per-key" \
  crates tests examples README.md DESIGN.md; then
  echo "a retired name resurfaced (see above)" >&2
  exit 1
fi

# PR 20 deleted the registry crates; their paths, the stand-in generator's
# name and the shard lock's upgrade dance stay out of the sources.
if grep -rnE "parking_lot::|crossbeam::|serde::|serde_json::|proptest::|criterion::|rand::|StdRng|upgradable_read" \
  crates tests examples; then
  echo "a deleted crate or its API resurfaced (see above)" >&2
  exit 1
fi

# PR 18 replaced the serving index's per-table hash maps and per-query
# `seen` vector with flat arrays; the old index lives on only as the
# oracle in crates/serve/tests/ann_equiv.rs.
if grep -rnF -e 'HashMap<u32, Vec<u32>>' -e 'vec![false;' crates/serve/src; then
  echo "the retired LSH index resurfaced in crates/serve/src (see above)" >&2
  exit 1
fi

# The prefetch cache finds its coldest entry through an ordered victim
# index; the full scan it replaced lives on only as the oracle in
# crates/cache/tests/prefetch_equiv.rs.
if grep -nF 'entries.keys()' crates/cache/src/prefetch.rs; then
  echo "the retired victim scan resurfaced in crates/cache/src/prefetch.rs (see above)" >&2
  exit 1
fi

# The benchmark package is its own workspace over the same layer crates;
# a layer change that breaks a seam it decorates must fail here, not in
# the benchmark pipeline. Its seven "patch … was not used in the crate
# graph" warnings are expected until the [benchmark] PR drops e2e/stubs.
echo "==> end-to-end benchmark package builds and passes its own tests"
cargo test --release --offline --manifest-path e2e/Cargo.toml

echo "==> fault-injection suite (lossy wire, codec fuzz)"
cargo test --release --offline -q -p oe-net
cargo test --release --offline -q -p openembedding --test fault_suite

echo "==> kill-mid-epoch failover smoke"
cargo test --release --offline -q -p openembedding --test failover_e2e

echo "==> crash-point enumeration sweep"
if [[ "${CRASHMC_FULL:-0}" == "1" ]]; then
  # Exhaustive: every persistence event, every optimizer (slow).
  cargo test --release --offline -q -p openembedding --test crashmc
  cargo run --release --offline -p oe-bench --bin crashmc -- --out BENCH_crashmc.json
else
  # Bounded: SGD exhaustive via the test, stride-sampled bench sweep.
  cargo test --release --offline -q -p openembedding --test crashmc -- \
    exhaustive_sweep_sgd_holds_every_invariant \
    crash_during_recovery_is_exhaustively_idempotent \
    standby_promotes_consistently_from_enumerated_crash_points
  cargo run --release --offline -p oe-bench --bin crashmc -- --smoke --out BENCH_crashmc.json
fi

# Perf-trajectory harness: the gated benches append their metrics to
# BENCH_trajectory.json (keyed by git commit) and fail CI when any
# metric drops >30% below BENCH_baseline.json. After an intentional
# perf change, accept the new numbers with:  UPDATE_BASELINE=1 ./ci.sh
GATE_FLAGS=(--record BENCH_trajectory.json --gate BENCH_baseline.json)
if [[ "${UPDATE_BASELINE:-0}" == "1" ]]; then
  GATE_FLAGS+=(--update-baseline)
fi

echo "==> pull/push lane sweep: virtual keys/s at 1, 4 and one-per-shard lanes (smoke, gated)"
cargo run --release --offline -p oe-bench --bin pullpush -- --smoke --out BENCH_pullpush.json "${GATE_FLAGS[@]}"

echo "==> optimizer kernels vs the scalar reference (geomeans gated) and burst-codec rates (smoke)"
cargo run --release --offline -p oe-bench --bin kernels -- --smoke --out BENCH_kernels.json "${GATE_FLAGS[@]}"

echo "==> failover/retry-overhead bench (smoke)"
cargo run --release --offline -p oe-bench --bin failover -- --smoke --out BENCH_failover.json

echo "==> mid-epoch live-migration smoke"
cargo test --release --offline -q -p openembedding --test rebalance_e2e

echo "==> skew-aware rebalancing bench (smoke, gated)"
cargo run --release --offline -p oe-bench --bin rebalance -- --smoke --out BENCH_rebalance.json "${GATE_FLAGS[@]}"

echo "==> training schedules: k = 0 sync-trainer goldens, bounded staleness, pinned evictions, migration coherence"
cargo test --release --offline -q -p openembedding --test pipeline_e2e

echo "==> prefetch victim index = retired full scan"
cargo test --release --offline -q -p oe-cache --test prefetch_equiv

echo "==> pipelined-training frontier bench (smoke, gated)"
cargo run --release --offline -p oe-bench --bin pipeline -- --smoke --out BENCH_pipeline.json "${GATE_FLAGS[@]}"

echo "==> serving-plane suite (snapshot-flip torture, ANN recall floors, flat index = retired index, decode = recovery scan)"
cargo test --release --offline -q -p oe-serve

echo "==> SLO-driven serving bench (smoke, gated)"
cargo run --release --offline -p oe-bench --bin serve -- --smoke --out BENCH_serve.json "${GATE_FLAGS[@]}"

echo "==> disaggregated-pool failover smoke"
cargo test --release --offline -q -p openembedding --test pool_failover_e2e

echo "==> disaggregated-pool storage bench (smoke, gated)"
cargo run --release --offline -p oe-bench --bin pool -- --smoke --out BENCH_pool.json "${GATE_FLAGS[@]}"

echo "CI OK"
