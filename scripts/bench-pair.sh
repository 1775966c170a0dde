#!/usr/bin/env bash
# Paired before/after run of the BENCHMARK.json benchmark on one workload:
#
#   scripts/bench-pair.sh <base-rev> <workload> [pairs]
#   make bench-pair BASE=<rev> WORKLOAD=<workload> PAIRS=10
#
# Checks <base-rev> out into a git worktree under .bench_build/, then runs
# PAIRS pairs of (base, working tree), each side through its own
# `bash bench/run.sh --workload W --seed S --seconds 20 --trace 0`, alternating
# which side goes first so host drift falls on both alike; both sides of a
# pair get the same seed and every pair a new one. Prints, per end-to-end
# metric, each side's median and quartiles, the median's relative change,
# the spread of the base's own runs (q3 − q1 over its median) and the pairs
# the working tree won. A gain is claimable when it wins at least nine
# tenths of the pairs and the medians differ by more than that spread.
set -euo pipefail

base_rev="${1:?usage: bench-pair.sh <base-rev> <workload> [pairs]}"
workload="${2:?usage: bench-pair.sh <base-rev> <workload> [pairs]}"
pairs="${3:-10}"
root="$(cd "$(dirname "$0")/.." && pwd)"
base="$root/.bench_build/pair-base"
runs="$root/.bench_build/pair-runs.txt"
log="$root/.bench_build/pair-stderr.log"

mkdir -p "$root/.bench_build"
git -C "$root" worktree remove --force "$base" 2>/dev/null || true
git -C "$root" worktree add --detach "$base" "$base_rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$base"' EXIT

# one_run <side> <dir> <seed>: appends "side pair metric value" lines. A run
# that fails an output check exits non-zero and stops the script; its own
# report is in $log.
one_run() {
	bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds 20 --trace 0 2>>"$log" | tail -n 1 |
		grep -o '"[a-z_0-9]*":{"value":[^,}]*' | sed -e 's/"//g' -e 's/:{value:/ /' |
		while read -r metric value; do echo "$1 $pair $metric $value"; done >>"$runs"
}

: >"$runs"
: >"$log"
for ((pair = 1; pair <= pairs; pair++)); do
	seed=$((300 + pair))
	if ((pair % 2)); then
		one_run base "$base" "$seed"
		one_run change "$root" "$seed"
	else
		one_run change "$root" "$seed"
		one_run base "$base" "$seed"
	fi
	echo "pair $pair/$pairs done (seed $seed)" >&2
done

# Direction of every metric, from the benchmark's own declaration.
awk '/"name":/ { gsub(/[",]/, ""); name = $2 } /"better":/ { gsub(/[",]/, ""); print "better", name, $2 }' \
	"$root/BENCHMARK.json" | cat - "$runs" | awk -v workload="$workload" -v rev="$base_rev" '
function quantile(a, n, q,    pos, lo) { # linear interpolation between order statistics
	pos = 1 + (n - 1) * q; lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function summarize(side, metric, out,    n, i, a) {
	n = 0
	for (i = 1; i <= npairs; i++) if ((side, i, metric) in v) a[++n] = v[side, i, metric]
	asort_n(a, n)
	out["q1"] = quantile(a, n, .25); out["med"] = quantile(a, n, .5); out["q3"] = quantile(a, n, .75)
}
function asort_n(a, n,    i, j, t) { # insertion sort: n is a handful
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
$1 == "better" { better[$2] = $3; next }
{ v[$1, $2, $3] = $4; if ($2 > npairs) npairs = $2; if (!($3 in seen)) { seen[$3]; order[++nmetrics] = $3 } }
END {
	printf "%s: working tree against %s, %d pairs\n", workload, rev, npairs
	printf "%-22s %12s %12s %12s   %12s %12s %12s %9s %9s %6s\n", "metric", "base q1", "base med", "base q3", "change q1", "change med", "change q3", "change", "base iqr", "won"
	for (m = 1; m <= nmetrics; m++) {
		metric = order[m]; summarize("base", metric, b); summarize("change", metric, c)
		won = 0; tied = 0
		for (i = 1; i <= npairs; i++) {
			if (!(("base", i, metric) in v) || !(("change", i, metric) in v)) continue
			d = v["change", i, metric] - v["base", i, metric]
			if (better[metric] == "higher") d = -d
			if (d < 0) won++; else if (d == 0) tied++
		}
		printf "%-22s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %+8.2f%% %8.2f%% %3d/%d%s\n", metric, b["q1"], b["med"], b["q3"], c["q1"], c["med"], c["q3"],
			100 * (c["med"] - b["med"]) / b["med"], 100 * (b["q3"] - b["q1"]) / b["med"], won, npairs - tied, tied ? " (" tied " tied)" : ""
	}
}'
