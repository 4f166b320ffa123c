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

# Public docs may not link to private items or to names that are gone.
echo "==> cargo doc --no-deps --workspace --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

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
# place their names may still appear. The two standbys and the
# in-process crash drill are one `Standby` over `core::recovery`; their
# old names stay out as well. So do the bench scenarios the end-to-end
# benchmark measures, their `figures` twins and the trajectory log
# (EXPERIMENTS.md, "Retired bench scenarios"). The node cache is the
# paper's LRU with admit-always: the FIFO and CLOCK policies, the
# admission filter, the `figures ablations` arms that swept them and the
# unused simulator histogram are gone (EXPERIMENTS.md, "Retired
# ablations"). Exact numbers are tier-1 test literals: the scenario
# gate, its baseline file, its environment switches and the four
# scenario binaries are gone (EXPERIMENTS.md, "Retired bench gate").
# The wire carries only what a PsClient sends: the placement-epoch
# fence, the entry-migration RPCs and the static-hash shell in oe-core
# are gone (EXPERIMENTS.md, "Retired wire placement plane"); PlacedCluster
# and PsEngine keep `placement_epoch` and `export_entry`. The codec reads
# every frame through the two views (no owned control decoder), and
# oe-serve has one read surface, the snapshot (no ServingNode and no
# sampling helper beside SnapshotReader::lookup). The cost model says
# each thing once: NetCharge is the one network model, a training
# window composes its lanes inline, settings that had one value are
# constants, and helpers that nothing called are gone. The crash-point
# enumerator, the rebalancing storm and the fault injector are test
# drivers in tests/support/; the prefetch cache ranks by FreqTracker
# itself, and Optimizer::apply checks its own shape. A router forwards
# a push's occurrences straight from its shard buckets, with no
# coalesce-then-sort round trip. The node's request path runs one way:
# one gradient apply (no batched multi-row kernel, no PMem-run flush)
# and one scratch shelf (no shape-keyed table). The cluster routes by
# the static hash only: the skew-aware placer, the rebalance
# controller, live migration, the placement table and the trainer's
# coherence drain and run hook are gone (EXPERIMENTS.md, "The placement
# plane, measured then retired"). The node keeps the paper's one lock:
# the cache shards, the virtual lanes and their cost merge, the sharded
# figures engine and the batch cadence nothing called are gone
# (EXPERIMENTS.md, "Retired ablations" and "Retired A/B arms").
echo "==> retired twins stay retired"
if grep -rnE "train::crashmc|bench::rebalance|net::fault|HeatSketch|fn try_apply|occurrences_in_request_order|pull_cached_legacy|push_cached_legacy|scalar_kernels|build_scalar|Request::Pull|Request::Push|Response::Weights|legacy-per-key|CheckpointReplica|PoolStandby|spawn_promoted|recovery_burst_ns|FailureOutcome|train::failure|BENCH_trajectory|DEFAULT_THRESHOLD|gated_metrics|--bin (pullpush|pipeline|serve|pool)|figures -- (pullpush|kernels|failover|crashmc|rebalance|pipeline|serve)|PolicyKind|AdmissionKind|EvictionPolicy|FifoPolicy|ClockPolicy|Doorkeeper|SecondTouch|NewDeclined|LatencyHistogram|OeCustom|gated_main|update_baseline|parse_flat_json|GateOutcome|BENCH_baseline|UPDATE_BASELINE|CRASHMC_FULL|KernelsConfig|--bin (kernels|crashmc|failover|rebalance)|PlacementUpdate|ExportEntry|ImportEntry|DiscardEntry|Response::Entry|set_placement_epoch|try_export_entry|try_import_entry|try_discard_entry|rpc_stale_epoch_rejections_total|rpc_placement_updates_total|oe_core::cluster|Packet::decode|ServingNode|sampled_lookup|NetModel|PipelineWindow|amdahl_burst|shared_bandwidth_ns|shared_write_ns|fn advance_to|ps_service_threads|maintainer_threads|streams_per_worker|init_scale|load_ratio|p99_ratio|youngs_interval|expected_hot_share|che_miss_rate|normalized_to|fn burstiness|GpuModel::fast|apply_batch|flush_pmem_run|grad_rows|Shape::lane|Shape::request|MAX_SHAPES|SkewAwarePlacer|PlacerConfig|NodeClass|RebalanceController|RebalanceConfig|NodeWindow|with_auto_rebalance|start_migration|MigrationSpec|PlacementTable|drain_moved_keys|drain_invalidations|try_run_with_hook|OeSharded|merge_parallel|lane_parallel|cache_entries_per_shard|execute_lanes|BatchCadence|fn partition\(" \
  crates tests examples README.md DESIGN.md; then
  echo "a retired name resurfaced (see above)" >&2
  exit 1
fi

# Product crates hold the product: the test drivers the integration
# tests share live in tests/support/, so their names stay out of
# crates/*/src.
if grep -rnE "CrashMcConfig|RebalanceBenchConfig|FaultInjector|FaultSpec|HeatSketch" crates/*/src; then
  echo "a test driver resurfaced in a product crate (see above)" >&2
  exit 1
fi

# Maps and sets keyed by an embedding key hash with oe_cache's keyed
# multiply-fold hasher (KeyMap / KeySet), not SipHash; test modules may
# still build std maps.
keyed_default="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { skip = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
  !skip && /Hash(Map|Set)<Key[^A-Za-z0-9_]/ && !/KeyState/ { print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$keyed_default" ]]; then
  echo "$keyed_default"
  echo "a default-hasher map or set keyed by Key in crates/*/src: use oe_cache::{KeyMap, KeySet} (see above)" >&2
  exit 1
fi
# The shard plan is flat: one occurrence array for the whole request,
# not one Vec per unique key (the nested plan lives on only as the
# oracle in crates/core/tests/plan_equiv.rs).
if grep -nF 'Vec<Vec<u32>>' crates/core/src/plan.rs; then
  echo "a nested occurrence list resurfaced in crates/core/src/plan.rs (see above)" >&2
  exit 1
fi

# The one unsafe call in the product is the row kernel's run-time
# dispatch to its #[target_feature] copy (crates/core/src/init.rs);
# every other crate is safe Rust.
unsafe_lines="$(find crates/*/src -name '*.rs' ! -path crates/core/src/init.rs -print0 | xargs -0 awk '
  FNR == 1 { skip = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
  !skip && /unsafe/ { print FILENAME ":" FNR ": " $0 }')"
if [[ -n "$unsafe_lines" ]]; then
  echo "$unsafe_lines"
  echo "unsafe outside crates/core/src/init.rs in crates/*/src (see above)" >&2
  exit 1
fi
# A worker batch is one flat key buffer deduplicated through a bitmap;
# the per-input lists and the comparison sort live on only as the
# oracle in the generator's tests.
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /sort_unstable|Vec<Vec<Key>>/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/workload/src/generator.rs; then
  echo "the retired sort or nested key lists resurfaced in crates/workload/src/generator.rs (see above)" >&2
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

# The serving plane is safe Rust with no per-target code: the scoring
# sketch's integer dot vectorises from plain loops.
if grep -rnE 'unsafe|core::arch|std::arch' crates/serve/src; then
  echo "unsafe code or an intrinsic in crates/serve/src (see above)" >&2
  exit 1
fi

# A point lookup costs ~45 ns and a wall-clock span ~100 ns more: the
# one point-lookup path, SnapshotReader::lookup, times one lookup in
# 256, so its span is the only serve-lookup span.
lookup_spans="$(grep -rnF 'span(Phase::ServeLookup)' crates/serve/src || true)"
if [[ "$(grep -c . <<<"$lookup_spans")" != 1 ]] || ! grep -q 'snapshot_handle.rs' <<<"$lookup_spans"; then
  echo "${lookup_spans:-no span(Phase::ServeLookup) in crates/serve/src}"
  echo "span(Phase::ServeLookup) must occur once in crates/serve/src, in SnapshotReader::lookup in snapshot_handle.rs (see above)" >&2
  exit 1
fi

# The codec writes into a Vec<u8> and reads through one cursor over
# &[u8]: oe-net uses the bytes crate only for the Bytes type the
# Transport seam carries, never its buffer or cursor API.
if grep -rnE 'BytesMut|BufMut|bytes::(\{[^}]*\b)?Buf\b' crates/net/src; then
  echo "the bytes crate's buffer or cursor API resurfaced in crates/net/src (see above)" >&2
  exit 1
fi

# The prefetch cache finds its coldest entry through an ordered victim
# index; the full scan it replaced lives on only as the oracle in
# crates/cache/tests/prefetch_equiv.rs.
if grep -nF 'entries.keys()' crates/cache/src/prefetch.rs; then
  echo "the retired victim scan resurfaced in crates/cache/src/prefetch.rs (see above)" >&2
  exit 1
fi

# The media's line shadow is a sorted Vec; the hash-map shadow lives on
# only as the oracle in crates/simdevice/tests/media_equiv.rs. A node
# flush recycles its pruned slots from VersionChain::prune's inline
# return, with no Vec of its own.
if grep -nF 'HashMap' crates/simdevice/src/media.rs; then
  echo "the retired hash-map line shadow resurfaced in crates/simdevice/src/media.rs (see above)" >&2
  exit 1
fi
# The recovery scan keeps each key's newest version in a flat table;
# the hash-map survey lives on only as the oracle in
# crates/pmem/tests/survey_equiv.rs.
if grep -nF 'HashMap' crates/pmem/src/scan.rs; then
  echo "the retired hash-map survey resurfaced in crates/pmem/src/scan.rs (see above)" >&2
  exit 1
fi
if awk '/fn flush_payload\(/ { f = 1 } f && /Vec::new\(\)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        f && /^    }$/ { f = 0 } END { exit !hit }' crates/core/src/node.rs; then
  echo "flush_payload allocates again (see above)" >&2
  exit 1
fi
# A request runs on the request thread, as one group under the node's
# one lock. The node's product code starts no thread.
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /thread::(scope|spawn)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/core/src/node.rs; then
  echo "crates/core/src/node.rs forks the request path onto threads again (see above)" >&2
  exit 1
fi
# A node's one lock guards its index, arena and LRU (the paper's one
# reader-writer lock): no vector of shard locks.
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /Vec<RwLock<Shard>>/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/core/src/node.rs; then
  echo "crates/core/src/node.rs splits its cache into shard locks again (see above)" >&2
  exit 1
fi
# A request's reads, rows and outcome tags live in the request's pooled
# scratch: the pull and push group bodies allocate nothing.
if awk '/fn (pull_group|push_group)\(/ { f = 1 } f && /Vec::new\(\)|vec!\[|\.collect\(\)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        f && /^    }$/ { f = 0 } END { exit !hit }' crates/core/src/node.rs; then
  echo "pull_group or push_group allocates (see above)" >&2
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

# Bounded: SGD exhaustive, crash-during-recovery for every optimizer,
# enumerated standby promotions, and the pinned stride-sampled sweep.
echo "==> crash-point enumeration sweep"
cargo test --release --offline -q -p openembedding --test crashmc -- \
  exhaustive_sweep_sgd_holds_every_invariant \
  crash_during_recovery_is_exhaustively_idempotent \
  standby_promotes_consistently_from_enumerated_crash_points \
  smoke_shape_event_stream_is_pinned

echo "==> training schedules: k = 0 sync-trainer goldens, bounded staleness, pinned evictions"
cargo test --release --offline -q -p openembedding --test pipeline_e2e

echo "==> sorted line shadow = retired hash-map shadow (media ops, costs, events, crash images)"
cargo test --release --offline -q -p oe-simdevice --test media_equiv

# A debug build: the table's half-load check is a debug assertion.
echo "==> flat newest-version table = retired hash-map survey (scan reports, free lists, image scans)"
cargo test --offline -q -p oe-pmem --test survey_equiv

echo "==> prefetch victim index = retired full scan"
cargo test --release --offline -q -p oe-cache --test prefetch_equiv

echo "==> no prefetch decision, heat ranking or shard plan depends on the key hasher; flat plan = retired nested coalesce"
cargo test --release --offline -q -p oe-cache --test hash_seed_independence
cargo test --release --offline -q -p oe-core --test plan_equiv

echo "==> bitmap dedup = retired sort; every row-kernel copy this CPU runs = init_weight, bit for bit"
cargo test --release --offline -q -p oe-workload --lib generator::tests::bitmap_dedup_matches_the_retired_sort
cargo test --release --offline -q -p oe-core --lib \
  init::tests::every_row_kernel_variant_equals_init_weight_bit_for_bit -- --nocapture

echo "==> serving-plane suite (snapshot-flip torture, ANN recall floors, flat index + sketch-filtered top-k = retired index, decode = recovery scan)"
cargo test --release --offline -q -p oe-serve

echo "==> disaggregated-pool failover smoke"
cargo test --release --offline -q -p openembedding --test pool_failover_e2e

# The paper artifacts on the simulator are a pure function of the
# source: two runs must exit 0 and print the same bytes. This asserts
# no verdict about the numbers themselves, only that they reproduce.
echo "==> figures --quick all runs twice to identical output"
figures_a="$(mktemp)"
figures_b="$(mktemp)"
trap 'rm -f "$figures_a" "$figures_b"' EXIT
cargo run --release --offline -q -p oe-bench --bin figures -- --quick all >"$figures_a"
cargo run --release --offline -q -p oe-bench --bin figures -- --quick all >"$figures_b"
if ! cmp "$figures_a" "$figures_b"; then
  echo "figures --quick all printed different bytes on a second run" >&2
  exit 1
fi

# figures_output.txt is the bare stdout of a full `figures all`: the
# committed artifacts must be what the source prints.
echo "==> figures all prints the committed figures_output.txt"
cargo run --release --offline -q -p oe-bench --bin figures -- all >"$figures_a"
if ! cmp "$figures_a" figures_output.txt; then
  echo "figures all differs from the committed figures_output.txt: regenerate it and say why" >&2
  exit 1
fi

echo "CI OK"
