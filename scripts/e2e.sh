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
#
# With E2E_AA=1 (`make e2e-aa W=<workload> PAIRS=<n>`) the change side is
# unpacked from the base ref too, so the loop runs a commit against itself.
# Its per-metric pair differences are then written to E2E_NOISE.json under
# the workload's name: the A/A noise floor. Without E2E_AA, every row of
# -compare's table is followed by the change's median pair difference as a
# multiple of that floor (the A/A interquartile range of pair differences),
# when E2E_NOISE.json holds the workload.
set -euo pipefail
base=${1:?usage: e2e.sh <base-ref> <workload> [pairs] [first-seed]}
workload=${2:?usage: e2e.sh <base-ref> <workload> [pairs] [first-seed]}
pairs=${3:-10}
first=${4:-1}
aa=${E2E_AA:-0}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2e"
noise="$root/E2E_NOISE.json"
rev=$(git -C "$root" rev-parse --short "$base")

# unpack <dir>: a fresh checkout of the base ref in dir.
unpack() {
	rm -rf "$1"
	mkdir -p "$1"
	git -C "$root" archive "$base" | tar -x -C "$1"
}
basedir="$out/base-$rev"
unpack "$basedir"
changedir="$root"
if ((aa)); then
	changedir="$out/aa-$rev"
	unpack "$changedir"
fi
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
		run change "$changedir" "$seed"
	else
		run change "$changedir" "$seed"
		run base "$basedir" "$seed"
	fi
done

# Per end-to-end metric of BENCHMARK.json: each seed's relative difference
# (change - base) / base, and their quartiles as Python's
# statistics.quantiles(n=4) gives them, the way bench's -compare reads runs.
# spread is the larger side's quartile spread over its runs.
stats='
def quartiles: sort as $s | ($s | length) as $n |
	if $n == 0 then [0, 0, 0]
	elif $n == 1 then [$s[0], $s[0], $s[0]]
	else [1, 2, 3 | (. * ($n + 1)) as $im | ([([($im / 4 | floor), 1] | max), $n - 1] | min) as $j |
		($im - $j * 4) as $d | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4]
	end;
def qspread: map(select(. != null)) | quartiles as $q | if $q[1] == 0 then 0 else ($q[2] - $q[0]) / $q[1] end;
def r4: . * 10000 | round / 10000;
def byseed: map({key: (.seed | tostring), value: .}) | from_entries;
($base | map(select(.trace | not)) | byseed) as $b |
($change | map(select(.trace | not)) | byseed) as $c |
[$b | keys[] | select($c[.] != null)] as $seeds |
[$bench[0].end_to_end[] | .name as $m |
	[$seeds[] | $b[.].metrics[$m].value as $x | $c[.].metrics[$m].value as $y |
		select($x != null and $y != null and $x != 0) | ($y - $x) / $x] as $d |
	($d | quartiles) as $q |
	{key: $m, value: {unit, better, diff_median: ($q[1] | r4), diff_q1: ($q[0] | r4),
		diff_q3: ($q[2] | r4), floor: ($q[2] - $q[0] | r4),
		spread: ([([$seeds[] | $b[.].metrics[$m].value] | qspread),
			([$seeds[] | $c[.].metrics[$m].value] | qspread)] | max | r4)}}] |
{pairs: ($seeds | length), metrics: from_entries}'
diffs() {
	jq -n --slurpfile base "$out/$workload.base.jsonl" --slurpfile change "$out/$workload.change.jsonl" \
		--slurpfile bench "$root/BENCHMARK.json" "$stats"
}

verdict=0
report=$(bash "$root/bench/run.sh" -compare "$out/$workload.base.jsonl" "$out/$workload.change.jsonl") || verdict=$?
if ((aa)); then
	echo "$report"
	cpu=$(grep -m1 'model name' /proc/cpuinfo | sed 's/.*: //' || true)
	entry=$(diffs | jq --arg rev "$rev" --arg first "$first" --arg cores "$(nproc)" \
		--arg go "$(go env GOVERSION)" --arg cpu "$cpu" --arg date "$(date -u +%Y-%m-%d)" \
		'{commit: $rev, date: $date, first_seed: ($first | tonumber), cores: ($cores | tonumber),
		go: $go, cpu_model: $cpu} + .')
	[[ -s "$noise" ]] || echo '{}' >"$noise"
	jq --arg w "$workload" --argjson e "$entry" '.[$w] = $e' "$noise" >"$noise.tmp"
	mv "$noise.tmp" "$noise"
	echo "A/A floor for $workload written to E2E_NOISE.json"
	exit 0
fi
if [[ -s "$noise" ]] && jq -e --arg w "$workload" 'has($w)' "$noise" >/dev/null; then
	# metric -> "diff  floor  multiple" columns appended to -compare's rows.
	cols=$(diffs | jq -r --slurpfile noise "$noise" --arg w "$workload" '
		.metrics | to_entries[] | $noise[0][$w].metrics[.key] as $aa |
		[.key, "\(.value.diff_median * 1000 | round / 10 + 0)%",
			(if $aa == null then "-" else "\($aa.floor * 1000 | round / 10)%" end),
			(if $aa == null or $aa.floor == 0 then "-"
			else "\(.value.diff_median / $aa.floor * 100 | round / 100 + 0)x" end)] | @tsv')
	E2E_COLS=$cols awk 'BEGIN {
		n = split(ENVIRON["E2E_COLS"], rows, "\n")
		for (i = 1; i <= n; i++) { split(rows[i], f, "\t"); extra[f[1]] = sprintf("%9s %9s %8s", f[2], f[3], f[4]) }
	}
	{ line[NR] = $0; split($0, w, " +"); key[NR] = w[2]; width = length($0) > width ? length($0) : width }
	END {
		printf "%-*s  %9s %9s %8s\n", width, line[1], "pair diff", "A/A floor", "x floor"
		for (i = 2; i <= NR; i++) printf "%-*s  %s\n", width, line[i], (key[i] in extra ? extra[key[i]] : "")
	}' <<<"$report"
else
	echo "$report"
	echo "(no A/A floor for $workload in E2E_NOISE.json: run make e2e-aa W=$workload)"
fi
exit "$verdict"
