#!/usr/bin/env bash
# Builds and runs sqbench-e2e.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run in one process; the last line of stdout is the JSON result
#       (this is the form BENCHMARK.json's command takes)
#   benchmark/run.sh [--seed N] [--workload NAME]
#       every workload (or the named one): the untraced run, then the traced
#       one, each in its own process, with the validity checks enforced
#   benchmark/run.sh --aa [--seed N]
#       the whole set twice, then per metric x workload the two values, their
#       relative difference and PASS/FAIL against the metric's bound
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/sqbench-e2e"

aa=0 single=0 seed=20150831 workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --aa) aa=1 ;;
        --seed) seed="${args[i + 1]:-}" ;;
        --workload) workload="${args[i + 1]:-}" ;;
        --seconds | --trace) single=1 ;;
    esac
done

if ((single)); then
    exec "$bin" --out "$here/out" "$@"
fi

run_set() { # $1 = output directory
    local w status=0
    for w in ${workload:-sparse_screen dense_verify wide_sharded zipf_churn}; do
        for trace in 0 1; do
            "$bin" --workload "$w" --seed "$seed" --trace "$trace" --out "$1" \
                --enforce-validity || status=1
        done
    done
    return "$status"
}

if ((aa)); then
    status=0
    run_set "$here/out/a" || status=1
    run_set "$here/out/b" || status=1
    "$bin" --compare "$here/out/a" "$here/out/b" || status=1
    exit "$status"
fi
run_set "$here/out"
