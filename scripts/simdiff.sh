#!/usr/bin/env bash
# Diff every experiment's output against a parent commit, the check
# behind "the experiments stay byte-identical" in ROADMAP aim 2: the
# parent is exported into a temporary tree, cmd/olapsim is built on
# both trees, and `olapsim -experiment all -quick` runs on each in
# table format, so the figures' notes are compared with their rows.
# The two line kinds that read the host clock are dropped first: the
# "database ready in ..." banner and the "   (...ms)" line after each
# figure. Any other difference is printed as a unified diff and the
# script exits 1. The change is the working tree as it stands,
# committed or not. One side takes a few minutes.
#
#   make simdiff PARENT=<ref>
#   scripts/simdiff.sh <parent-ref>
set -euo pipefail

parent=${1:?usage: $0 <parent-ref>}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"

for side in parent change; do
	tree=$root
	if [[ $side == parent ]]; then tree=$tmp/parent; fi
	(cd "$tree" && go build -o "$tmp/olapsim-$side" ./cmd/olapsim)
	"$tmp/olapsim-$side" -experiment all -quick -format table \
		| grep -Ev '^database ready in |^   \([^)]*\)$' >"$tmp/$side.out"
done

if diff -u --label "parent $parent" --label change "$tmp/parent.out" "$tmp/change.out"; then
	echo "simdiff: no difference against $parent ($(wc -l <"$tmp/change.out") lines)"
else
	echo "simdiff: output differs from $parent" >&2
	exit 1
fi
