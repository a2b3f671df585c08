#!/usr/bin/env bash
# A/B the repository benchmark against a parent commit, the protocol
# every performance note in CHANGES.md uses: the parent is exported into
# a temporary tree, `benchmark/run.sh --workload W --seed 1 --seconds 12`
# runs on both trees in alternating order (a host phase then hits both
# sides alike), and for each end-to-end metric the two medians, the
# parent's inter-quartile range, the change's wins, losses and ties over
# the pairs, the exact two-sided sign-test p-value of wins against
# losses (ties excluded) and a verdict are printed (scripts/abstat.awk):
# better or worse when p < 0.05, level otherwise. The change is the
# working tree as it stands, committed or not. Nothing under benchmark/
# is touched; each tree builds into its own git-ignored benchmark/out/.
# Interrupted, it stops the running benchmark too (scripts/children.sh).
#
#   make ab PARENT=<ref> WORKLOAD=<name> [PAIRS=10]
#   scripts/ab.sh <parent-ref> <workload> [pairs]
set -euo pipefail

usage="usage: $0 <parent-ref> <workload> [pairs]"
parent=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
source "$root/scripts/children.sh"
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"

# Every run's last line is one JSON object (benchmark/README.md); a run
# that exits non-zero still prints it, with "correct":false.
for ((i = 1; i <= pairs; i++)); do
	order="parent change"
	if ((i % 2 == 0)); then order="change parent"; fi
	for side in $order; do
		tree=$root
		if [[ $side == parent ]]; then tree=$tmp/parent; fi
		run "$tree" bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 12 >"$tmp/run.out" || true
		line=$(tail -n 1 "$tmp/run.out")
		echo "pair $i $side $line" >&2
		printf '%s\t%s\n' "$side" "$line" >>"$tmp/runs.tsv"
	done
done

awk -F'\t' -v OFMT=%.17g -v workload="$workload" -v ref="$parent" -v values="$tmp/values.txt" '
function value(line, metric,    re) {
	re = "\"" metric "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return "nan"
	return substr(line, RSTART + length(metric) + 12, RLENGTH - length(metric) - 12) + 0
}
BEGIN { nm = split("setup_s qps lat_p50_ms cpu_ms_per_query rss_peak_mb", metrics, " ") }
{
	side = $1; n[side]++
	if ($2 !~ /"correct":true/ || $2 !~ /"failed":0[,}]/) bad[side]++
	for (m = 1; m <= nm; m++) print side, metrics[m], value($2, metrics[m]) >values
}
END {
	printf "%s: %d pairs, change (working tree) against parent %s; wrong or failed runs: parent %d, change %d\n",
		workload, n["parent"], ref, bad["parent"], bad["change"]
}' "$tmp/runs.tsv"
awk -v higher=qps -f "$root/scripts/abstat.awk" "$tmp/values.txt"
