#!/usr/bin/env bash
# check-filter.sh run|bench <pattern> <packages...>
#
# `go test -run X` and `go test -bench X` exit 0 when X matches nothing, so a
# renamed test silently drops out of the CI step that selected it by regex.
# This fails unless every |-separated alternative of <pattern> names at least
# one test or fuzz target (run) or benchmark (bench) in <packages>.
set -euo pipefail
kind=$1 pattern=$2
shift 2
case $kind in
run) prefix='^(Test|Fuzz)' ;;
bench) prefix='^Benchmark' ;;
*) echo "check-filter: kind must be run or bench, got '$kind'" >&2; exit 2 ;;
esac
listing=$(go test -list '.*' "$@")
names=$(grep -E "$prefix" <<<"$listing" || true)
status=0
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
	if ! grep -Eq -- "$alt" <<<"$names"; then
		echo "check-filter: '$alt' matches no $kind target in $*" >&2
		status=1
	fi
done
exit $status
