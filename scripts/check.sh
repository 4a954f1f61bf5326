#!/bin/sh
# Repository check: byte-compile every module, then run the test suite.
# No make, no extra dependencies — sh + python + pytest only.
#
# Usage:  scripts/check.sh [extra pytest args...]
set -eu

cd "$(dirname "$0")/.."

echo "== compileall src =="
python -m compileall -q src

echo "== pytest =="
# Coverage-gated when pytest-cov is available (it ships in the `test`
# extra); plain run otherwise so the check works on a bare toolchain.
if python -c "import pytest_cov" 2>/dev/null; then
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
        --cov=repro --cov-report=term --cov-fail-under=80 "$@"
else
    echo "(pytest-cov not installed; running without the coverage gate)"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q "$@"
fi

# The differential suites must be hash-seed independent, so they run
# once more under each of two PYTHONHASHSEED values; any dependence on
# dict/set iteration order then shows up as a diff. Between them they
# prove fault injection (chaos), worker-count invariance and the shard
# merge (parallel), eager/lazy/sharded world materialisation
# (procedural), the four-protocol tables across worlds and workers
# (fourproto), checkpoint/resume byte-identity plus incremental ==
# batch campaign goldens (longitudinal), and the DNS codec against its
# per-field reference on valid and malformed wire (robustness).
DIFFERENTIAL="chaos or parallel or procedural or fourproto or longitudinal or robustness"
for hashseed in 0 1; do
    echo "== differential suites (PYTHONHASHSEED=$hashseed) =="
    PYTHONHASHSEED=$hashseed PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest -x -q -m "$DIFFERENTIAL"
done

# Memory-regression gate: a 10^6-address lazy sweep must stay under a
# tracemalloc budget and never hit the full-materialise path.
echo "== scale suite (10^6-address sweep) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest -x -q -m scale

# Hot-path micro-benchmarks (--skip-campaign keeps this to a few
# seconds). The gate is the script exiting cleanly — throughput
# regressions against the recorded baseline only print warnings,
# because ops/sec depends on the machine running the check.
echo "== hot-path benchmarks =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_hotpath.py --skip-campaign \
    --out benchmarks/BENCH_HOTPATH.tmp.json >/dev/null
rm -f benchmarks/BENCH_HOTPATH.tmp.json
echo "ok (see benchmarks/BENCH_HOTPATH.json for the recorded run)"

# Serving benchmark, error-only gate: a small run must exit cleanly and
# its document must pass the schema validator (shed counters present,
# same-seed scorecards byte-identical). qps numbers are never asserted
# on — they depend on the machine running the check.
echo "== serving benchmark =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_serving.py --queries 1000 \
    --out benchmarks/BENCH_SERVING.tmp.json >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_serving.py \
    --validate benchmarks/BENCH_SERVING.tmp.json --min-queries 1000
rm -f benchmarks/BENCH_SERVING.tmp.json
echo "ok (see benchmarks/BENCH_SERVING.json for the recorded run)"

# Parallel-execution benchmark, error-only gate: the committed document
# must pass the schema validator, including the >= 2x floor on the
# persistent-pool-vs-legacy-executor speedup at the recorded worker
# count. The floor compares two executors on the same machine in the
# same run, so unlike raw wall-clock it is stable across hardware.
echo "== parallel benchmark document =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_parallel_campaign.py \
    --validate benchmarks/BENCH_PARALLEL.json
echo "ok (see benchmarks/BENCH_PARALLEL.json for the recorded run)"

# Scale benchmark document: the committed record must show the
# 10^6-address sweep peaking within the flatness budget (1.25x) of the
# 10^4 sweep. The ratio compares two sweeps from the same run on the
# same machine, so it is stable across hardware.
echo "== scale benchmark document =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_scale.py \
    --validate benchmarks/BENCH_SCALE.json
echo "ok (see benchmarks/BENCH_SCALE.json for the recorded run)"

# Longitudinal benchmark, error-only gate: a fresh quick run must pass
# its own validator (resume digest equals the straight run's,
# incremental artefact hashes equal batch at workers 1/4, long-run
# memory within the flatness budget), and the committed 100-round
# document must validate with the 50-round floor the acceptance
# criteria demand. Wall-clock numbers are never asserted on.
echo "== longitudinal benchmark =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_longitudinal.py --quick \
    --out benchmarks/BENCH_LONGITUDINAL.tmp.json >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_longitudinal.py \
    --validate benchmarks/BENCH_LONGITUDINAL.tmp.json --min-rounds 10
rm -f benchmarks/BENCH_LONGITUDINAL.tmp.json
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_longitudinal.py \
    --validate benchmarks/BENCH_LONGITUDINAL.json --min-rounds 50
echo "ok (see benchmarks/BENCH_LONGITUDINAL.json for the recorded run)"

# Four-protocol benchmark, error-only gate: a fresh run must confirm
# the same DoH endpoint set as the naive scan with strictly fewer
# probes, hash the four-protocol table identically across eager and
# lazy worlds, and — because the document holds no machine-dependent
# fields — reproduce the committed record byte for byte.
echo "== four-protocol benchmark =="
PYTHONHASHSEED=2 PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_fourproto.py \
    --out benchmarks/BENCH_FOURPROTO.tmp.json >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_fourproto.py \
    --validate benchmarks/BENCH_FOURPROTO.tmp.json
cmp benchmarks/BENCH_FOURPROTO.tmp.json benchmarks/BENCH_FOURPROTO.json
rm -f benchmarks/BENCH_FOURPROTO.tmp.json
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_fourproto.py \
    --validate benchmarks/BENCH_FOURPROTO.json
echo "ok (see benchmarks/BENCH_FOURPROTO.json for the recorded run)"
