#!/usr/bin/env bash
# require-pass.sh <file> <TestName>...
#
# Fails unless <file> — `go test -v` output — holds a `--- PASS: <TestName>`
# line for every name given, naming each one that is missing: a guarded
# test that is renamed away, skipped or filtered out of a -run pattern
# fails the step by name instead of with a silent exit 1.
set -u
file=$1
shift
status=0
for name in "$@"; do
  if ! grep -q -- "--- PASS: $name (" "$file"; then
    echo "missing PASS: $name (in $file)" >&2
    status=1
  fi
done
exit $status
