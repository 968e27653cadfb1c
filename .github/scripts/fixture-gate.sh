#!/usr/bin/env bash
# A must-fail gate over the seeded fixtures: `dejavu_cli COMMAND
# --fixtures` passes only when it exits 1 with findings, does not
# crash, and names every expected check id. A sanitizer abort or a
# stack overflow exits non-zero too, so `! dejavu_cli ...` alone would
# count a crash as a pass.
#
# Usage: fixture-gate.sh CLI COMMAND CHECK_ID...
set -u
cli=$1
cmd=$2
shift 2

out=$("$cli" "$cmd" --fixtures 2>&1)
status=$?
printf '%s\n' "$out"

fail() {
  echo "fixture gate '$cmd --fixtures': $1" >&2
  exit 1
}
[ "$status" -eq 1 ] || fail "exited $status, want 1"
if grep -qE 'Sanitizer|runtime error:|no longer trips expected check' \
    <<<"$out"; then
  fail "crashed or lost an expected finding"
fi
for id in "$@"; do
  grep -qF "[$id]" <<<"$out" || fail "never reported $id"
done
