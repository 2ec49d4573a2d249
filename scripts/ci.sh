#!/usr/bin/env bash
# Tier-1 CI gate: fast tests under a hard per-test timeout, then a
# smoke run of the fault-tolerant batch harness on two small builtins —
# once sequentially, once on the parallel scheduler — checking that the
# two merged reports are byte-identical (the --jobs determinism
# guarantee).
#
# Usage: scripts/ci.sh   (from the repository root)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== repo-specific lint =="
# The custom AST rules (R001-R005, see docs/analysis.md) have no
# external dependencies and always gate.
python -m repro lint

echo "== tracked bytecode check =="
# .gitignore keeps __pycache__ out; this keeps it from sneaking back
# into the index via a force-add.
if [ -n "$(git ls-files '*.pyc' '*.pyo')" ]; then
    echo "tracked bytecode files found:" >&2
    git ls-files '*.pyc' '*.pyo' >&2
    exit 1
fi

echo "== deep lint (dataflow + call graph) =="
# The interprocedural analyzer (R101-R104 handle lifetimes, R201-R204
# concurrency; see docs/analysis.md and DESIGN.md section 17), gated
# against the committed baseline and a 60-second wall-time budget so
# the analysis stays cheap enough to run on every push.
DEEP_START=$SECONDS
python -m repro lint --deep --baseline lint-baseline.json
DEEP_SECONDS=$((SECONDS - DEEP_START))
echo "deep lint wall time: ${DEEP_SECONDS}s"
if [ "$DEEP_SECONDS" -ge 60 ]; then
    echo "deep lint exceeded the 60s budget (${DEEP_SECONDS}s)" >&2
    exit 1
fi

# Generic strict tooling (config in pyproject.toml) is an optional
# dependency like pytest-cov below: CI installs ruff+mypy, local runs
# without them simply skip the gates.
if python -m ruff --version >/dev/null 2>&1; then
    echo "== ruff =="
    python -m ruff check src tests
fi
if python -c "import mypy" 2>/dev/null; then
    echo "== mypy =="
    python -m mypy
fi

echo "== tier-1 test suite =="
# Coverage floor on the harness package (supervision, fallback,
# scheduling — the layer whose regressions are easiest to leave
# silently untested).  pytest-cov is an optional dependency: CI
# installs it, local runs without it simply skip the gate.
COV_ARGS=()
if python -c "import pytest_cov" 2>/dev/null; then
    COV_ARGS=(--cov=repro.harness --cov-report=term --cov-fail-under=75)
fi
# REPRO_TEST_TIMEOUT arms the SIGALRM guard in tests/conftest.py: any
# single test that hangs past the limit fails instead of wedging the job.
REPRO_TEST_TIMEOUT="${REPRO_TEST_TIMEOUT:-120}" \
    python -m pytest -q -m tier1 ${COV_ARGS[0]:+"${COV_ARGS[@]}"} tests

echo "== batch harness smoke =="
# Two small built-in circuits through the full resilient path
# (process isolation, checkpointing, fallback ladder, journal), at
# --jobs 1 and --jobs 2; the merged reports must match byte for byte.
SMOKE_DIR="${REPRO_SMOKE_DIR:-$(mktemp -d)}"
[ -n "${REPRO_SMOKE_DIR:-}" ] || trap 'rm -rf "$SMOKE_DIR"' EXIT
python -m repro batch traffic s27 \
    --max-seconds 120 \
    --checkpoint-dir "$SMOKE_DIR/ckpt1" \
    --journal "$SMOKE_DIR/journal-seq.jsonl" \
    --report "$SMOKE_DIR/report-seq.json"
python -m repro batch traffic s27 \
    --max-seconds 120 --jobs 2 \
    --checkpoint-dir "$SMOKE_DIR/ckpt2" \
    --journal "$SMOKE_DIR/journal.jsonl" \
    --report "$SMOKE_DIR/report-par.json"
test -s "$SMOKE_DIR/journal-seq.jsonl"
test -s "$SMOKE_DIR/journal.jsonl"
cmp "$SMOKE_DIR/report-seq.json" "$SMOKE_DIR/report-par.json"

echo "== serve smoke =="
# A real `python -m repro serve` subprocess under a 50-request storm:
# eight concurrent clients with duplicated requests (in-flight dedup +
# result cache), a crash-injected attempt the server must degrade to a
# resumable answer, a cancelled request, graceful SIGTERM shutdown, and
# a /proc scan proving no engine process outlived the server.
python scripts/serve_smoke.py

echo "== backend engine smoke =="
# The two non-BDD set backends (docs/backends.md) as first-class
# engines: one tier-1 cell each through the full CLI path, checking
# registration, the fix-point driver, and result finalization.
python -m repro reach s27 --engine bitset --max-seconds 120
python -m repro reach s27 --engine zono --max-seconds 120

echo "== sanitized reach smoke =="
# Every engine (all eight: six BDD-substrate plus bitset/zono) under
# every-iteration invariant auditing (unique-table canonicity, cache
# replay vs the reference kernels, BFV canonical form); any violation
# aborts the run with the invariant's name.  The s1269s bfv-sat run
# puts the BFV canonicity audits on a run heavy in re-parameterization
# (many unions with shared components under non-FALSE exclusion
# conditions), which the s27 cell barely exercises.
python -m repro reach s27 --engine all --sanitize --max-seconds 120
python -m repro reach s1269s --engine bfv-sat --sanitize --max-seconds 120

echo "CI OK"
