#!/usr/bin/env bash
# Full benchmark set, standing in for CI (ci.sh is outside the
# benchmark's paths).
#
#   e2e/run.sh [--seed N] [--seconds S]
#       Build this checkout, run every workload untraced and traced,
#       write e2e/out/<commit>.jsonl and e2e/out/<commit>-trace.jsonl
#       (a result file is appended to, so a stale one is removed first).
#
#   e2e/run.sh --pairs N <checkout-a> <checkout-b> [--seed N] [--seconds S]
#       Build both checkouts, then N times run every workload untraced
#       on each, alternating which side goes first, and compare each
#       pair with `oe-e2e compare` (bounds from a's BENCHMARK.json).
#
# The commit stamp is `git rev-parse` of the checkout, or $COMMIT when
# the checkout is not a git repository. Results are never stamped
# "unknown": the binary refuses.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
pairs=0
args=()
checkouts=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seed|--seconds) args+=("$1" "$2"); shift 2 ;;
        -h|--help) sed -n '2,17p' "$0"; exit 0 ;;
        *) checkouts+=("$1"); shift ;;
    esac
done

commit_of() {
    git -C "$1" rev-parse --short=12 HEAD 2>/dev/null || {
        [ -n "${COMMIT:-}" ] || { echo "run.sh: $1 is not a git checkout; set COMMIT" >&2; exit 2; }
        echo "$COMMIT"
    }
}

# build <checkout>: prints the path of the built binary.
build() {
    local target="$1/e2e/target"
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$1/e2e/Cargo.toml" >&2
    echo "$target/release/oe-e2e"
}

if [ "$pairs" -eq 0 ]; then
    root="$(cd "$here/.." && pwd)"
    bin="$(build "$root")"
    commit="$(commit_of "$root")"
    out="$here/out"
    mkdir -p "$out"
    cd "$root"
    export CARGO_TARGET_DIR="$root/e2e/target"
    rm -f "$out/$commit.jsonl" "$out/$commit-trace.jsonl"
    "$bin" --all "${args[@]}" --commit "$commit" --out "$out/$commit.jsonl"
    "$bin" --all "${args[@]}" --trace --commit "$commit" --out "$out/$commit-trace.jsonl"
    echo "run.sh: wrote $out/$commit.jsonl and $out/$commit-trace.jsonl"
    exit 0
fi

[ "${#checkouts[@]}" -eq 2 ] || { echo "run.sh: --pairs needs two checkouts" >&2; exit 2; }
a="$(cd "${checkouts[0]}" && pwd)"
b="$(cd "${checkouts[1]}" && pwd)"
bin_a="$(build "$a")"
bin_b="$(build "$b")"
commit_a="$(COMMIT="${COMMIT_A:-${COMMIT:-}}" commit_of "$a")"
commit_b="$(COMMIT="${COMMIT_B:-${COMMIT:-}}" commit_of "$b")"
out="$here/out/pairs-$commit_a-$commit_b"
rm -rf "$out"
mkdir -p "$out"
status=0
for i in $(seq 1 "$pairs"); do
    # Alternate which side runs first: drift in the box's speed then
    # falls on both sides alike.
    if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        if [ "$side" = a ]; then
            (cd "$a" && "$bin_a" --all "${args[@]}" --commit "$commit_a" --out "$out/a.$i.jsonl") >/dev/null
        else
            (cd "$b" && "$bin_b" --all "${args[@]}" --commit "$commit_b" --out "$out/b.$i.jsonl") >/dev/null
        fi
    done
    echo "== pair $i ($order)"
    "$bin_a" compare "$out/a.$i.jsonl" "$out/b.$i.jsonl" --bounds "$a/BENCHMARK.json" || status=1
done
exit $status
