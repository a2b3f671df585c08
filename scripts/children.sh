# Sourced by scripts/ab.sh and scripts/benchab.sh: run each long child
# so that an interrupted A/B leaves nothing running.
#
# bash runs a trap only after its foreground child exits, so a child
# started in the foreground outlives the script that a SIGTERM or
# SIGINT ends. run starts each child as a background job instead — in
# its own process group, with job control on — and waits on it, which a
# signal interrupts at once. The traps then stop the child's whole
# group before removing the temporary tree "$tmp".

set -m
child=

# run <dir> <command> [args...] runs the command in dir and returns its
# exit status.
run() {
	local dir=$1 rc=0
	shift
	(cd "$dir" && exec "$@") &
	child=$!
	wait "$child" || rc=$?
	child=
	return "$rc"
}

cleanup() {
	if [[ -n $child ]]; then
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}

trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
