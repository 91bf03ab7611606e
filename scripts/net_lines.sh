#!/bin/sh
# Added, removed and net lines of the OCaml sources (.ml/.mli) under
# lib/ and bin/, between BASE and the working tree (untracked files
# count as added), from `git diff --numstat`.  This is the line-count
# change each change reports next to its bench delta.
#
#   sh scripts/net_lines.sh [BASE]      (or: make net-lines [BASE=...])
#
# BASE defaults to the parent commit of the change under way: HEAD
# while lib/ or bin/ has uncommitted changes, HEAD~1 once it is
# committed.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

specs="lib/*.ml lib/*.mli bin/*.ml bin/*.mli"
untracked=$(git ls-files --others --exclude-standard -- $specs)
if [ $# -ge 1 ]; then
  base=$1
elif git diff --quiet HEAD -- $specs && [ -z "$untracked" ]; then
  base=HEAD~1
else
  base=HEAD
fi

{
  git diff --numstat "$base" -- $specs
  for f in $untracked; do
    printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"
  done
} | awk -v base="$(git rev-parse --short "$base")" '
  { dir = $3; sub(/\/.*/, "", dir); add[dir] += $1; del[dir] += $2 }
  END {
    for (i = 1; i <= 2; i++) {
      d = (i == 1) ? "lib" : "bin"
      printf "%-6s +%d -%d net %+d\n", d "/", add[d], del[d], add[d] - del[d]
      ta += add[d]; td += del[d]
    }
    printf "%-6s +%d -%d net %+d  (against %s)\n", "total", ta, td, ta - td, base
  }'
