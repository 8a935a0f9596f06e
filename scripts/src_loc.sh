#!/usr/bin/env bash
# Prints the src/ line count that ROADMAP aim 2 tracks: every line of
# src/**/*.{h,cc} plus src/CMakeLists.txt, as one number.
#
#     scripts/src_loc.sh            # this checkout
#     scripts/src_loc.sh DIR        # another checkout (e.g. a parent copy)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"
{
  find src \( -name '*.h' -o -name '*.cc' \) -print0 | xargs -0 cat
  cat src/CMakeLists.txt
} | wc -l | tr -d ' '
