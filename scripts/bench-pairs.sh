#!/usr/bin/env bash
# Alternating-pair benchmark runs: a parent revision against the working
# tree, compared with `benchmark compare`.
#
# Usage:
#   scripts/bench-pairs.sh --seeds S1,S2,...,SN [--out DIR] [--trace 0|1] \
#       PARENT_REV N [WORKLOAD...]
#
# Builds the benchmark at PARENT_REV (exported with `git archive` into
# target/bench-pairs/parent/, reused while it is still that revision) and
# at the working tree. Then, for each workload (default: every workload
# in BENCHMARK.json), it runs N pairs with BENCHMARK.json's command,
# `--seconds` set to its `run_seconds`; pair n runs on seed Sn on both
# sides, the parent first on odd pairs and the working tree first on
# even ones. Each run's output is saved as DIR/parent/<workload>.<n>.txt
# and DIR/change/<workload>.<n>.txt (DIR defaults to
# target/bench-pairs/runs and is emptied first). Last it prints
# `benchmark compare DIR/parent DIR/change` and saves it as
# DIR/compare.txt (it prints a metric's row only from two pairs up).
# Exits non-zero if any run failed.
#
# Runs take one at a time; pick seeds that did not size the claim under
# test.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '4,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

seeds=""
out="target/bench-pairs/runs"
trace=0
while [[ $# -gt 0 && $1 == --* ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --seeds) seeds=$2 ;;
        --out) out=$2 ;;
        --trace) trace=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $# -ge 2 && -n $seeds ]] || usage
rev=$1
pairs=$2
shift 2
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

IFS=, read -r -a seed_list <<<"$seeds"
if ((${#seed_list[@]} < pairs)); then
    echo "bench-pairs: $pairs pairs need $pairs seeds, got ${#seed_list[@]}" >&2
    exit 2
fi
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
secs=$(jq -r '.run_seconds' BENCHMARK.json)
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

sha=$(git rev-parse --verify "$rev^{commit}")
parent="target/bench-pairs/parent"
if [[ $(cat "$parent/.rev" 2>/dev/null) != "$sha" ]]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git archive --format=tar "$sha" | tar -x -C "$parent"
    echo "$sha" >"$parent/.rev"
fi
parent=$(cd "$parent" && pwd)
change=$(pwd)

for tree in "$parent" "$change"; do
    echo "building the benchmark in $tree" >&2
    (cd "$tree" && cargo build --release --quiet --offline \
        --manifest-path examples/benchmark/Cargo.toml)
done

rm -rf "$out"
mkdir -p "$out/parent" "$out/change"
failed=0
run() { # SIDE TREE WORKLOAD PAIR SEED
    local file="$out/$1/$3.$4.txt"
    echo "$3 pair $4 seed $5: $1" >&2
    if ! (cd "$2" && "${cmd[@]}" --workload "$3" --seed "$5" --seconds "$secs" \
        --trace "$trace") >"$file" 2>&1; then
        echo "bench-pairs: $1 run failed, see $file" >&2
        failed=1
    fi
}
for w in "${workloads[@]}"; do
    for ((n = 1; n <= pairs; n++)); do
        seed=${seed_list[n - 1]}
        if ((n % 2)); then
            run parent "$parent" "$w" "$n" "$seed"
            run change "$change" "$w" "$n" "$seed"
        else
            run change "$change" "$w" "$n" "$seed"
            run parent "$parent" "$w" "$n" "$seed"
        fi
    done
done

"$change/examples/benchmark/target/release/benchmark" compare "$out/parent" "$out/change" |
    tee "$out/compare.txt"
exit "$failed"
