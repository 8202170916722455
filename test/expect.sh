#!/bin/sh
# expect FILE PATTERN...: exit 1, naming the first pattern that fails,
# unless every extended regular expression PATTERN matches a line of
# FILE.  The @*-smoke rules state their expectations of an artifact
# (its core, its verdict, the spans and metrics it must carry) as
# patterns over the artifact's `bespoke_cli stats` rendering.
file=$1
shift
for pattern in "$@"; do
  if ! grep -Eq -- "$pattern" "$file"; then
    echo "$file: no line matches /$pattern/" >&2
    exit 1
  fi
done
