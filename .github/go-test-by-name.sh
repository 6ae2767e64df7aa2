#!/usr/bin/env bash
# Runs `go test ARGS...` for a CI step that selects tests by name, then
# fails unless every name in the -run pattern matched a test in the
# given packages. `go test -run` exits 0 when a pattern matches nothing
# ("[no tests to run]"), so a renamed test would otherwise drop out of
# its step without a trace.
#
#   bash .github/go-test-by-name.sh -race -run '^(TestA|TestB)$' -count=5 ./internal/core
set -euo pipefail

go test "$@"

pattern= pkgs=()
while [ $# -gt 0 ]; do
	case "$1" in
	-run) pattern=$2; shift ;;
	-run=*) pattern=${1#-run=} ;;
	-*) ;;
	*) pkgs+=("$1") ;;
	esac
	shift
done
[ -n "$pattern" ] || { echo "go-test-by-name.sh: no -run pattern" >&2; exit 2; }

listed=$(go test -list "$pattern" "${pkgs[@]}")
missing=0
for name in $(sed -E 's/^\^?\(?//; s/\)?\$?$//' <<<"$pattern" | tr '|' ' '); do
	if ! grep -q "^$name" <<<"$listed"; then
		echo "go-test-by-name.sh: no test matches $name in ${pkgs[*]}" >&2
		missing=1
	fi
done
exit $missing
