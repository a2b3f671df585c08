#!/usr/bin/env bash
# A/B the repository benchmark against a parent commit, the protocol
# every performance note in CHANGES.md uses: the parent is exported into
# a temporary tree, `benchmark/run.sh --workload W --seed 1 --seconds 12`
# runs on both trees in alternating order (a host phase then hits both
# sides alike), and for each end-to-end metric the two medians, the
# parent's inter-quartile range, the change's wins, losses and ties over
# the pairs, the exact two-sided sign-test p-value of wins against
# losses (ties excluded) and a verdict are printed: better or worse when
# p < 0.05, level otherwise. The change is the working tree as it
# stands, committed or not. Nothing under benchmark/ is touched; each tree builds into its own
# git-ignored benchmark/out/.
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
trap 'rm -rf "$tmp"' EXIT
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
		line=$(bash "$tree/benchmark/run.sh" --workload "$workload" --seed 1 --seconds 12 | tail -n 1) || true
		echo "pair $i $side $line" >&2
		printf '%s\t%s\n' "$side" "$line" >>"$tmp/runs.tsv"
	done
done

awk -F'\t' -v workload="$workload" -v ref="$parent" '
function value(line, metric,    re) {
	re = "\"" metric "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return "nan"
	return substr(line, RSTART + length(metric) + 12, RLENGTH - length(metric) - 12) + 0
}
# quantile q of v[1..n] by linear interpolation; sorts v in place.
function quantile(v, n, q,    i, j, t, h, lo) {
	for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
	h = 1 + (n - 1) * q; lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# signp is the exact two-sided sign-test p-value of w wins against l
# losses: twice the Binomial(w + l, 1/2) tail at min(w, l), capped at 1.
function signp(w, l,    n, k, i, c, s) {
	n = w + l; k = w < l ? w : l
	c = 1
	for (i = 0; i <= k && n > 0; i++) { s += c; c = c * (n - i) / (i + 1) }
	s = n > 0 ? 2 * s / 2 ^ n : 1
	return s > 1 ? 1 : s
}
BEGIN {
	nm = split("setup_s qps lat_p50_ms cpu_ms_per_query rss_peak_mb", metrics, " ")
	higher["qps"] = 1
}
{
	side = $1; n[side]++
	if ($2 !~ /"correct":true/ || $2 !~ /"failed":0[,}]/) bad[side]++
	for (m = 1; m <= nm; m++) val[side, metrics[m], n[side]] = value($2, metrics[m])
}
END {
	printf "%s: %d pairs, change (working tree) against parent %s; wrong or failed runs: parent %d, change %d\n",
		workload, n["parent"], ref, bad["parent"], bad["change"]
	printf "%-18s %12s %12s %9s %12s %9s %7s %s\n", "metric", "parent.med", "change.med", "delta", "parent.iqr", "W/L/T", "p", "verdict"
	for (m = 1; m <= nm; m++) {
		name = metrics[m]; wins = 0; losses = 0
		for (i = 1; i <= n["parent"]; i++) {
			p[i] = val["parent", name, i]; c[i] = val["change", name, i]
			if (c[i] == p[i]) continue
			if (name in higher ? c[i] > p[i] : c[i] < p[i]) wins++; else losses++
		}
		sp = signp(wins, losses)
		verdict = sp >= 0.05 ? "level" : wins > losses ? "better" : "worse"
		pm = quantile(p, n["parent"], 0.5); cm = quantile(c, n["change"], 0.5)
		iqr = quantile(p, n["parent"], 0.75) - quantile(p, n["parent"], 0.25)
		printf "%-18s %12.4g %12.4g %+8.1f%% %12.4g %3d/%d/%d %7.3g %s\n", name, pm, cm, pm ? 100 * (cm - pm) / pm : 0, iqr,
			wins, losses, n["parent"] - wins - losses, sp, verdict
	}
}' "$tmp/runs.tsv"
