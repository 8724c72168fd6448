#!/usr/bin/env bash
# Full verification sweep: style, types, tests, and the project's own
# static analysis over the shipped examples.  Tools that are not
# installed are skipped with a notice (the repro lint pass and the test
# suite always run — they need only the package itself).
#
# Usage: scripts/lint.sh [--fast]
#   --fast   skip the pytest tier (style + static analysis only)

set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
[ "${1:-}" = "--fast" ] && fast=1

failures=0

run() {
    echo "== $*"
    "$@" || failures=$((failures + 1))
}

skip() {
    echo "== SKIP: $1 (not installed)"
}

if command -v ruff >/dev/null 2>&1; then
    run ruff check src tests examples
else
    skip ruff
fi

if command -v mypy >/dev/null 2>&1; then
    run mypy
else
    skip mypy
fi

run python -m repro lint examples/

# Chaos smoke: answers under faults must match the fault-free run.
plan='{"seed":7,"drop":%s,"dup":0.1,"delay_jitter":5e-5,"reorder":0.1}'
run python -m repro run resilience -p exports=50 -p requests=24 --fault null \
    --fault "$(printf "$plan" 0.0)" --fault "$(printf "$plan" 0.05)" \
    --fault "$(printf "$plan" 0.2)"

if [ "$fast" -eq 0 ]; then
    run python -m pytest -x -q
fi

if [ "$failures" -gt 0 ]; then
    echo "FAILED: $failures check(s) failed"
    exit 1
fi
echo "OK: all checks passed"
