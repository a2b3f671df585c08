#!/usr/bin/env bash
# Print the bounds checks the Go compiler keeps in a package, counted per
# function (the compiler's -d=ssa/check_bce/debug=1 findings, each
# attributed to the func declaration it sits in), then the total.
#
#   make bce                      # internal/engine/relop
#   scripts/bce.sh <package-dir>
set -euo pipefail

pkg=${1:-./internal/engine/relop}
# The script sits in scripts/ at the repository root, so its parent is
# the root in a git checkout and in a `git archive` export alike.
cd "$(dirname "$0")/.."
go build -gcflags=-d=ssa/check_bce/debug=1 "$pkg" 2>&1 |
	awk -F: '/Found Is/ { hit[$1 ":" $2]++; files[$1] = 1; total++ }
	END {
		for (f in files) {
			fn = ""; n = 0
			while ((getline line < f) > 0) {
				n++
				if (line ~ /^func /) {
					fn = line
					sub(/^func (\([^)]*\) )?/, "", fn)
					sub(/[[(].*/, "", fn)
				}
				if ((f ":" n) in hit) count[f ": " fn] += hit[f ":" n]
			}
			close(f)
		}
		for (k in count) printf "%5d %s\n", count[k], k
		printf "%5d total\n", total
	}' | sort -k2
