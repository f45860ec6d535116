#!/usr/bin/env bash
# The pipeline benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--print-lock]
#
# Builds the benchmark package (offline, release), then runs each
# workload in a process of its own: all six without --workload. Each
# process prints one JSON object as the last line of its standard
# output; the header and diagnostics go to standard error. Run it from
# the repository root or anywhere else: paths are taken from this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;; # cargo reads a relative one against $PWD too
esac

workloads=()
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            [ $# -ge 2 ] || { echo "run.sh: --workload needs a value" >&2; exit 2; }
            workloads+=("$2")
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(plan_small plan_repeat plan_large prep_heavy exec_join exec_agg)
fi

CARGO_TARGET_DIR="$target" cargo build --offline --release --quiet \
    --manifest-path "$here/Cargo.toml" >&2

echo "# $(rustc --version 2>/dev/null || echo 'rustc unknown'), nproc=$(nproc)" >&2
for w in "${workloads[@]}"; do
    "$target/release/pipeline_bench" --workload "$w" \
        --lock "$here/inputs.lock" --out "$here/out" "${args[@]}"
done
