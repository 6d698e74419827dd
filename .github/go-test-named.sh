#!/usr/bin/env bash
# go test, guarded against silent gaps. It takes go test's arguments,
# with packages given as ./relative/paths:
#
#   bash .github/go-test-named.sh -race -run 'TestA|TestB' ./internal/pkg/
#
# Before running the tests it fails if any |-separated alternative of a
# -run or -fuzz pattern matches no test, benchmark, fuzz target or example
# in the packages. Plain go test passes such a pattern with "no tests to
# run", so a deleted or renamed test would drop out of CI unnoticed.
# Patterns are plain alternations: a group such as ^(A|B)$ is not split.
set -euo pipefail
args=("$@") patterns=() pkgs=()
for ((i = 0; i < ${#args[@]}; i++)); do
  case ${args[i]} in
    -run | -fuzz) patterns+=("${args[i + 1]}") ;;
    ./*) pkgs+=("${args[i]}") ;;
  esac
done
listed=$(go test -list . "${pkgs[@]}" | grep -v -e '^ok ' -e '^? ')
for pattern in "${patterns[@]}"; do
  [ "$pattern" = '^$' ] && continue
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    if ! grep -qE -- "$alt" <<<"$listed"; then
      echo "go test pattern '$alt' matches nothing in ${pkgs[*]}" >&2
      exit 1
    fi
  done
done
exec go test "$@"
