#!/usr/bin/env bash
# End-to-end comparison of a base commit against the working tree on one
# benchmark workload: `make e2e BASE=<ref> W=<workload> PAIRS=<n> SEED=<first>`.
#
# The base is unpacked with git archive under .bench_build/e2e/. Each seed
# from SEED to SEED+PAIRS-1 runs bench/run.sh once per side with --trace 0,
# base first on odd seeds and second on even ones, so neither side always
# runs on a warm or a cold machine. Each run's headline metrics are
# printed as it ends, and the full records go to one -out file per side;
# bench/run.sh -compare then judges the two files (exit 1 on "regressed").
set -euo pipefail
base=${1:?usage: e2e.sh <base-ref> <workload> [pairs] [first-seed]}
workload=${2:?usage: e2e.sh <base-ref> <workload> [pairs] [first-seed]}
pairs=${3:-10}
first=${4:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2e"
basedir="$out/base-$(git -C "$root" rev-parse --short "$base")"
rm -rf "$basedir"
mkdir -p "$basedir"
git -C "$root" archive "$base" | tar -x -C "$basedir"
rm -f "$out/$workload.base.jsonl" "$out/$workload.change.jsonl"

# run <side> <checkout> <seed>
run() {
	local line
	line=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds 22 --trace 0 \
		-out "$out/$workload.$1.jsonl" | tail -n 1)
	printf '%-6s seed %-4s %s\n' "$1" "$3" "$(jq -r '"failed=\(.failed) correct=\(.correct) " +
		([.metrics | to_entries[] | "\(.key)=\(.value.value * 100 | round / 100)"] | join(" "))' <<<"$line")"
}

for ((seed = first; seed < first + pairs; seed++)); do
	if ((seed % 2)); then
		run base "$basedir" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$basedir" "$seed"
	fi
done
bash "$root/bench/run.sh" -compare "$out/$workload.base.jsonl" "$out/$workload.change.jsonl"
