#!/usr/bin/env bash
# Pre-commit hook: the fast lint gate only (no sanitizer builds). Install:
#
#   ln -s ../../tools/precommit.sh .git/hooks/pre-commit
#
# Commits that touch no C++ source skip the gate entirely. Anything else
# lints the whole tree: the cross-file pass is what catches a retyped
# header signature firing R13 in files the commit never touched, so
# there is no cheaper form for header changes.
set -euo pipefail
cd "$(dirname "$(readlink -f "$0")")/.."

staged=$(git diff --cached --name-only --diff-filter=ACMRD)
if [ -n "$staged" ] && ! grep -qE '\.(h|cpp)$' <<<"$staged"; then
  echo "pre-commit: no lintable surface staged; skipping lint gate"
  exit 0
fi
# The gate lints the working tree, not the staged snapshot; with partially
# staged sources its verdict may not describe the commit being recorded.
if ! git diff --quiet -- '*.h' '*.cpp' 2>/dev/null; then
  echo "pre-commit: warning: unstaged source edits present; the lint gate" >&2
  echo "pre-commit: checks the working tree, not the staged snapshot" >&2
fi
exec tools/check.sh --lint-only
