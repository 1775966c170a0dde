#!/usr/bin/env bash
# Paired before/after run of the BENCHMARK.json benchmark:
#
#   scripts/bench-pair.sh <base-rev> <workload|all> [pairs] [first-seed]
#   make bench-pair BASE=<rev> WORKLOAD=<workload|all> PAIRS=10 SEED0=301
#
# Unpacks <base-rev> (git archive) under .bench_build/, then runs PAIRS pairs
# of (base, working tree), each side through its own
# `bash bench/run.sh --workload W --seed S --seconds 20 --trace 0`, alternating
# which side goes first so host drift falls on both alike; both sides of a
# pair get the same seed and every pair a new one. `all` runs the benchmark's
# workloads back to back inside every pair — the "did anything else move"
# half of a claim in the same command. After each pair it says whether the
# two sides ended on the same fingerprint; then, per workload and end-to-end
# metric, each side's median and quartiles, the median's relative change, the
# spread of the base's own runs (q3 − q1 over its median) and the pairs the
# working tree won. A gain is claimable when it wins at least nine tenths of
# the pairs and the medians differ by more than that spread.
set -euo pipefail

usage="usage: bench-pair.sh <base-rev> <workload|all> [pairs] [first-seed]"
base_rev="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seed0="${4:-301}"
root="$(cd "$(dirname "$0")/.." && pwd)"
base="$root/.bench_build/pair-base"
runs="$root/.bench_build/pair-runs.txt"
log="$root/.bench_build/pair-stderr.log"

workloads="$workload"
if [ "$workload" = all ]; then
	workloads="$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 } on && /"name":/ { gsub(/[",]/, ""); print $2 }' "$root/BENCHMARK.json")"
fi

# Build both sides without VCS stamps: only the working tree is a git
# checkout (the base comes from git archive), so otherwise only its binary
# carries build info, which shifts its data layout and once read as a −17 %
# rounds/s phantom between two builds with identical code.
export GOFLAGS="${GOFLAGS:+$GOFLAGS }-buildvcs=false"

rm -rf "$base"
mkdir -p "$base"
git -C "$root" archive "$base_rev" | tar -x -C "$base"
trap 'rm -rf "$base"' EXIT

# one_run <side> <dir> <seed> <workload>: appends "side pair workload metric
# value" lines, the fingerprint as the metric "fingerprint". A run that fails
# an output check exits non-zero and stops the script; its own report is in
# $log.
one_run() {
	local out
	out="$(bash "$2/bench/run.sh" --workload "$4" --seed "$3" --seconds 20 --trace 0 2>>"$log")"
	{
		echo "$out" | awk '$1 == "fingerprint" { print "fingerprint", $2 }'
		echo "$out" | tail -n 1 | grep -o '"[a-z_0-9]*":{"value":[^,}]*' | sed -e 's/"//g' -e 's/:{value:/ /'
	} | while read -r metric value; do echo "$1 $pair $4 $metric $value"; done >>"$runs"
}

: >"$runs"
: >"$log"
for ((pair = 1; pair <= pairs; pair++)); do
	seed=$((seed0 + pair - 1))
	for w in $workloads; do
		if ((pair % 2)); then
			one_run base "$base" "$seed" "$w"
			one_run change "$root" "$seed" "$w"
		else
			one_run change "$root" "$seed" "$w"
			one_run base "$base" "$seed" "$w"
		fi
	done
	awk -v pair="$pair" -v pairs="$pairs" -v seed="$seed" '
		$2 == pair && $4 == "fingerprint" { fp[$3, $1] = $5; if (!($3 in seen)) { seen[$3]; order[++n] = $3 } }
		END {
			printf "pair %d/%d done (seed %d):", pair, pairs, seed
			for (i = 1; i <= n; i++) {
				w = order[i]
				if (fp[w, "base"] == fp[w, "change"]) printf " %s fingerprints equal (%s)", w, fp[w, "base"]
				else printf " %s FINGERPRINTS DIFFER (base %s, change %s)", w, fp[w, "base"], fp[w, "change"]
			}
			print ""
		}' "$runs" >&2
done

# Direction of every metric, from the benchmark's own declaration.
awk '/"name":/ { gsub(/[",]/, ""); name = $2 } /"better":/ { gsub(/[",]/, ""); print "better", name, $2 }' \
	"$root/BENCHMARK.json" | cat - "$runs" | awk -v rev="$base_rev" '
function quantile(a, n, q,    pos, lo) { # linear interpolation between order statistics
	pos = 1 + (n - 1) * q; lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function summarize(side, w, metric, out,    n, i, a) {
	n = 0
	for (i = 1; i <= npairs; i++) if ((side, i, w, metric) in v) a[++n] = v[side, i, w, metric]
	asort_n(a, n)
	out["q1"] = quantile(a, n, .25); out["med"] = quantile(a, n, .5); out["q3"] = quantile(a, n, .75)
}
function asort_n(a, n,    i, j, t) { # insertion sort: n is a handful
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
$1 == "better" { better[$2] = $3; next }
$4 == "fingerprint" { if (!($3 in wseen)) { wseen[$3]; worder[++nw] = $3 }; next }
{ v[$1, $2, $3, $4] = $5; if ($2 > npairs) npairs = $2; if (!($4 in seen)) { seen[$4]; order[++nmetrics] = $4 } }
END {
	for (k = 1; k <= nw; k++) {
		w = worder[k]
		printf "%s: working tree against %s, %d pairs\n", w, rev, npairs
		printf "%-22s %12s %12s %12s   %12s %12s %12s %9s %9s %6s\n", "metric", "base q1", "base med", "base q3", "change q1", "change med", "change q3", "change", "base iqr", "won"
		for (m = 1; m <= nmetrics; m++) {
			metric = order[m]; summarize("base", w, metric, b); summarize("change", w, metric, c)
			won = 0; tied = 0
			for (i = 1; i <= npairs; i++) {
				if (!(("base", i, w, metric) in v) || !(("change", i, w, metric) in v)) continue
				d = v["change", i, w, metric] - v["base", i, w, metric]
				if (better[metric] == "higher") d = -d
				if (d < 0) won++; else if (d == 0) tied++
			}
			printf "%-22s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %+8.2f%% %8.2f%% %3d/%d%s\n", metric, b["q1"], b["med"], b["q3"], c["q1"], c["med"], c["q3"],
				100 * (c["med"] - b["med"]) / b["med"], 100 * (b["q3"] - b["q1"]) / b["med"], won, npairs - tied, tied ? " (" tied " tied)" : ""
		}
	}
}'
