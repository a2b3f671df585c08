#!/usr/bin/env bash
# A/B a package's Go benchmarks against a parent commit, the in-process
# counterpart of scripts/ab.sh: the parent is exported into a temporary
# tree, `go test -c` builds one test binary per tree, and the two
# binaries run the benchmarks matching the regex once per pair, in
# alternating order, each from its own tree's package directory. For
# each sub-benchmark the medians of ns/row (ns/op where a benchmark
# reports no ns/row), the parent's inter-quartile range, the change's
# wins, losses and ties, the sign-test p-value and a verdict are printed
# (scripts/abstat.awk). The change is the working tree as it stands,
# committed or not. Interrupted, it stops the running build or
# benchmark too (scripts/children.sh).
#
#   make benchab PARENT=<ref> PKG=<pkg> BENCH=<regex> [PAIRS=10]
#   scripts/benchab.sh <parent-ref> <pkg> <regex> [pairs]
set -euo pipefail

usage="usage: $0 <parent-ref> <pkg> <regex> [pairs]"
parent=${1:?$usage}
pkg=${2:?$usage}
bench=${3:?$usage}
pairs=${4:-10}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
source "$root/scripts/children.sh"
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
run "$tmp/parent" go test -c -o "$tmp/parent.test" "$pkg"
run "$root" go test -c -o "$tmp/change.test" "$pkg"

for ((i = 1; i <= pairs; i++)); do
	order="parent change"
	if ((i % 2 == 0)); then order="change parent"; fi
	for side in $order; do
		tree=$root
		if [[ $side == parent ]]; then tree=$tmp/parent; fi
		# A result line is "BenchmarkX/sub-P  N  v ns/op  [v unit]...";
		# the -P GOMAXPROCS suffix is dropped so both sides' names match.
		run "$tree/$pkg" "$tmp/$side.test" -test.run '^$' -test.bench "$bench" -test.timeout 30m >"$tmp/bench.out"
		awk -v side="$side" '/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name); v = ""
			for (f = 3; f < NF; f++) {
				if ($(f + 1) == "ns/row") v = $f
				if ($(f + 1) == "ns/op" && v == "") v = $f
			}
			if (v != "") print side, name, v
		}' "$tmp/bench.out" | tee -a "$tmp/values.txt" | sed "s/^/pair $i /" >&2
	done
done

echo "$bench in $pkg: $pairs pairs, change (working tree) against parent $parent; ns/row, or ns/op without it"
awk -f "$root/scripts/abstat.awk" "$tmp/values.txt"
