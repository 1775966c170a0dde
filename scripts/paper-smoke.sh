#!/usr/bin/env bash
# Runs the paper's record twice and requires the two passes to match:
# fedsu-bench -exp all,popscale,compose at 2 rounds, 4 clients and 2
# run slots, then a diff of the two stdouts and a diff -r of the two -out
# directories. Each experiment's "--- <id>: wall ..." footer and the whole
# Table II block are dropped from stdout first: both time themselves on the
# wall clock (Table II's compute columns are the one sanctioned exception
# to the harness determinism contract).
#
# Usage: scripts/paper-smoke.sh [fedsu-bench binary]
# Without a binary it builds ./cmd/fedsu-bench from the working tree.
# About 30 s of experiment wall per pass on 2 vCPUs; peak RSS ~1.8 GB
# (table2).
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=${1:-}
if [ -z "$bin" ]; then
	bin=$tmp/fedsu-bench
	go build -o "$bin" ./cmd/fedsu-bench
fi
for pass in 1 2; do
	if ! "$bin" -exp all,popscale,compose -rounds 2 -clients 4 -parallel 2 \
		-out "$tmp/out$pass" >"$tmp/raw$pass" 2>"$tmp/stderr$pass"; then
		cat "$tmp/stderr$pass" >&2
		echo "paper-smoke: pass $pass failed" >&2
		exit 1
	fi
	awk '/^=== /{skip = ($0 == "=== table2 ===")} /^--- .*: wall /{next} !skip' \
		"$tmp/raw$pass" >"$tmp/stdout$pass"
done
diff "$tmp/stdout1" "$tmp/stdout2"
diff -r "$tmp/out1" "$tmp/out2"
echo "paper-smoke: both passes printed and wrote the same record"
