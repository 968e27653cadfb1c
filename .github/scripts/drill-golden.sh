#!/usr/bin/env bash
# Prints a CLI drill's output without its timing lines: every line
# carrying a wall-clock figure ("46.6 us") is dropped, so the rest can
# be pinned byte for byte by a golden (ctest -L drill). Exits non-zero
# when the drill does.
#
# Usage: drill-golden.sh CLI ARGS...
# Regenerate a golden after an intended output change with
#   drill-golden.sh ./build/examples/dejavu_cli ARGS > tests/golden/drill_NAME.txt
set -o pipefail
"$@" | sed -E '/[0-9]+(\.[0-9]+)? (ns|us|ms)( |$)/d'
