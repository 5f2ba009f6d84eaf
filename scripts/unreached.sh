#!/usr/bin/env sh
# unreached.sh — verify that every internal package is reachable from a
# command, an example or the public tolerance package (go list -deps). A
# package nothing reaches is dead code that only its own tests run. Run
# from the repository root; exits nonzero naming every unreached package.
set -eu

reached="$(go list -deps ./cmd/... ./examples/... .)"
unreached=""
for pkg in $(go list ./internal/...); do
	if ! printf '%s\n' "$reached" | grep -qx "$pkg"; then
		unreached="$unreached $pkg"
	fi
done
if [ -n "$unreached" ]; then
	echo "internal packages no command, example or the tolerance package imports:" >&2
	for pkg in $unreached; do
		echo "  $pkg" >&2
	done
	exit 1
fi
echo "unreached: every internal package is reachable"
