# abstat.awk is the statistics behind scripts/ab.sh and
# scripts/benchab.sh: it summarizes an A/B run in alternating pairs.
# Input is one "side name value" line per measurement, side "parent" or
# "change"; a name's i-th parent value pairs with its i-th change value.
# Names listed in the variable higher are better when larger, all others
# when smaller. Per name, in order of first appearance, it prints both
# medians, the change's delta, the parent's inter-quartile range, the
# change's wins/losses/ties, the exact two-sided sign-test p-value of
# wins against losses (ties excluded) and a verdict: better or worse
# when p < 0.05, level otherwise.
#
#   awk -v higher="qps" -f scripts/abstat.awk runs.txt

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
	split(higher, h, " ")
	for (i in h) up[h[i]] = 1
	width = 18
}
{
	if (!($2 in seen)) {
		seen[$2] = 1; names[++nn] = $2
		if (length($2) > width) width = length($2)
	}
	val[$1, $2, ++cnt[$1, $2]] = $3
}
END {
	col = "%-" width "s"
	printf col " %12s %12s %9s %12s %9s %7s %s\n", "metric", "parent.med", "change.med", "delta", "parent.iqr", "W/L/T", "p", "verdict"
	for (m = 1; m <= nn; m++) {
		name = names[m]; wins = 0; losses = 0
		n = cnt["parent", name] < cnt["change", name] ? cnt["parent", name] : cnt["change", name]
		for (i = 1; i <= n; i++) {
			p[i] = val["parent", name, i]; c[i] = val["change", name, i]
			if (c[i] == p[i]) continue
			if (name in up ? c[i] > p[i] : c[i] < p[i]) wins++; else losses++
		}
		sp = signp(wins, losses)
		verdict = sp >= 0.05 ? "level" : wins > losses ? "better" : "worse"
		pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
		iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
		printf col " %12.4g %12.4g %+8.1f%% %12.4g %3d/%d/%d %7.3g %s\n", name, pm, cm, pm ? 100 * (cm - pm) / pm : 0, iqr,
			wins, losses, n - wins - losses, sp, verdict
	}
}
