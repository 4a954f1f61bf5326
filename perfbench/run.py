"""The repository's benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 36 \
        --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``campaign``,
``serving`` and ``clients``. Each repetition runs in a fresh
interpreter (``rep.py``), so peak memory, the worker pool and the caches
belong to one repetition.

``--trace 0`` repeats the workload until ``--seconds`` are spent (at
least three repetitions) and reports the medians of the end-to-end
metrics:

* ``setup_s`` (s): interpreter start, program imports and world build,
  up to the first measured call, in reference seconds;
* ``ops_per_s`` (ops/s): ops counted from the returned results, per
  reference second of the measured call;
* ``peak_rss_mb`` (MB): peak resident memory, pool workers included.

A reference second is a wall second divided by the host's slowness
over it, sampled inside the repetition and its pool workers
(``hostspeed.py``); this takes out the speed phases of a shared host.
The wall-clock medians and the median slowness are printed too, and
kept in the result file.

``error_rate`` (ops of repetitions that raised or failed a check, over
ops attempted) is printed by name and is the ``failed`` / ``attempted``
pair of the result line.

``--trace 1`` makes a separate traced run: one untraced and one traced
repetition, whose ratio is ``trace.overhead_ratio``, and the per-layer
account of ``tracing.py``. Traced repetitions are not sampled for host
speed, so the traced figures are wall times and the overhead ratio of
two single repetitions carries the host's speed phases. Pool workers' spans cannot reach the parent,
so ``campaign`` takes its layer split from a one-worker traced run,
checks that its chain digest equals a pooled run's, and takes the
``parallel.*`` metrics from the parent side of the pooled run.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
check passed, 1 when a check failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import operator
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REP = os.path.join(HERE, "rep.py")
WORKLOADS = ("campaign", "serving", "clients")

#: Repetitions per ``--trace 0`` run, whatever ``--seconds`` says;
#: the tiny size only has to show that every metric prints.
MIN_REPS = {"full": 3, "tiny": 1}
MAX_REPS = 40
#: Every run must end well inside the three minutes a run may take.
DEADLINE_S = 165.0
#: The named layers' self times must cover the traced wall to within
#: this share; the rest is ``other``.
ACCOUNT_TOLERANCE = 0.05

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s",
                    "peak_rss_mb": "MB"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def code_sha256() -> str:
    """Digest of the program's sources: the code version even where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(SRC)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, params) -> dict:
    from repro.telemetry.manifest import git_describe
    return {
        "git_describe": git_describe(cwd=ROOT),
        "code_sha256": code_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


class Session:
    """The repetitions of one run and their time budget."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.reps = []
        self.failures = []
        self.child = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rep(self, trace: str = "off", workers: int = 0,
            spans: str = "") -> dict:
        args = self.args
        command = [sys.executable, REP, "--workload", args.workload,
                   "--seed", str(args.seed), "--size", args.size,
                   "--workers", str(workers or nproc()),
                   "--trace", trace, "--run-id", str(len(self.reps))]
        if spans:
            command += ["--spans", spans]
        # A fixed hash seed gives every repetition the same dict and set
        # layouts, so identical inputs do identical work.
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        timeout = max(5.0, DEADLINE_S - self.elapsed())
        # Its own session, so stopping it stops the pool workers too.
        child = self.child = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout, stderr = "", ""
            result = {"error": f"repetition exceeded {timeout:.0f} s"}
        else:
            lines = stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError as error:
                result = {"error": f"unreadable repetition output: {error}"}
            if child.returncode != 0 and "error" not in result:
                result["error"] = f"exit code {child.returncode}"
        finally:
            self.stop_child()
        if "error" in result:
            sys.stderr.write(stderr[-4000:])
        result.setdefault("failures", [])
        if "error" in result:
            result["failures"].append(result["error"])
        if trace != "off" and "layers" in result:
            layers = result["layers"]
            if layers["trace.accounted_error_ratio"][0] > 1e-9:
                result["failures"].append(
                    "layer self times plus other differ from the traced "
                    "wall: the spans do not nest")
            unattributed = layers["trace.unattributed_ratio"][0]
            if trace == "layers" and unattributed > ACCOUNT_TOLERANCE:
                result["failures"].append(
                    f"the named layers leave {unattributed:.1%} of the "
                    f"traced wall to other")
        result["trace_mode"] = trace
        self.reps.append(result)
        return result

    def stop_child(self) -> None:
        """Kill the running repetition's whole session and reap it."""
        child, self.child = self.child, None
        if child is None:
            return
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    def error_counts(self):
        """(ops attempted, ops in failed repetitions).

        A repetition that raised returns no ops count; it is charged
        the largest count any repetition of this run returned.
        """
        known = [rep["ops"] for rep in self.reps if "ops" in rep]
        typical = max(known, default=1) or 1
        attempted = failed = 0
        digests = {rep.get("digest") for rep in self.reps
                   if "digest" in rep}
        set_failed = len(digests) > 1
        if set_failed:
            self.failures.append(
                f"output digests differ across repetitions: "
                f"{sorted(digests)}")
        for rep in self.reps:
            ops = rep.get("ops", typical)
            attempted += ops
            if rep["failures"] or set_failed:
                failed += ops
        return attempted, failed


def run_plain(session: Session) -> dict:
    """Repeat the workload until the time is spent; medians."""
    args = session.args
    while True:
        session.rep()
        count = len(session.reps)
        mean = session.elapsed() / count
        if count >= MAX_REPS or session.elapsed() + mean > DEADLINE_S:
            break
        if (count >= MIN_REPS[args.size]
                and session.elapsed() + mean > args.seconds):
            break
    good = [rep for rep in session.reps if "ops" in rep]
    if not good:
        return {}, {}
    setup = [rep["import_s"] + rep["build_s"] for rep in good]
    rate = [rep["ops"] / rep["run_s"] for rep in good]
    # Taken at wall time where nothing was sampled.
    setup_slowness = [rep["setup_slowness"] or 1.0 for rep in good]
    run_slowness = [rep["run_slowness"] or 1.0 for rep in good]
    wall = {
        "wall_setup_s": (statistics.median(setup), "s"),
        "wall_ops_per_s": (statistics.median(rate), "ops/s"),
        "setup_slowness": (statistics.median(setup_slowness), "x"),
        "run_slowness": (statistics.median(run_slowness), "x"),
    }
    return {
        "setup_s": statistics.median(
            map(operator.truediv, setup, setup_slowness)),
        "ops_per_s": statistics.median(
            map(operator.mul, rate, run_slowness)),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in good),
    }, wall


def run_traced(session: Session) -> dict:
    """One untraced and one traced repetition; the layer account."""
    args = session.args
    workers = 1 if args.workload == "campaign" else nproc()
    baseline = session.rep(workers=workers)
    traced = session.rep(trace="layers", workers=workers,
                         spans=os.path.join(OUT, f"spans-{args.workload}"
                                                 f".tsv.gz"))
    if "layers" not in traced or "run_s" not in baseline:
        return {}
    metrics = dict(traced["layers"])
    if args.workload == "campaign":
        # The chain digests of all three repetitions must agree; the
        # set-wide digest check of error_counts covers it.
        pooled = session.rep(trace="parallel", workers=nproc(),
                             spans=os.path.join(OUT, "spans-campaign-"
                                                     "pooled.tsv.gz"))
        if "layers" not in pooled:
            return {}
        for name, value in pooled["layers"].items():
            if name.startswith("parallel."):
                metrics[name] = value
    untraced_wall = baseline["build_s"] + baseline["run_s"]
    metrics["trace.untraced_wall_s"] = [untraced_wall, "s"]
    metrics["trace.overhead_ratio"] = [
        metrics["trace.wall_s"][0] / untraced_wall - 1.0, "ratio"]
    metrics["process.cpu_s"] = [traced["cpu_s"], "s"]
    return {name: tuple(value) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the benchmark's own quick tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    session = Session(args)

    def terminate(signum, frame):
        session.stop_child()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    wall = {}
    if args.trace:
        values = run_traced(session)
        units = {name: unit for name, (_, unit) in values.items()}
        values = {name: value for name, (value, _) in values.items()}
    else:
        values, wall = run_plain(session)
        units = END_TO_END_UNITS
    attempted, failed = session.error_counts()
    failures = session.failures + [
        failure for rep in session.reps for failure in rep["failures"]]
    correct = not failures and bool(values)
    params = next((rep["params"] for rep in session.reps
                   if "params" in rep), {})
    document = {
        "provenance": provenance(args, params),
        "repetitions": session.reps,
        "failures": failures,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": values,
        "wall_metrics": wall,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-trace"
                                f"{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(session.reps)} repetitions in "
          f"{session.elapsed():.1f} s")
    for failure in failures:
        print(f"  FAILED: {failure}")
    for note in sorted({note for rep in session.reps
                        for note in rep.get("notes", ())}):
        print(f"  note: {note}")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for name, (value, unit) in wall.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'error_rate':36s} {document['error_rate']:14.6g} ratio "
          f"({failed} of {attempted} ops)")
    print("provenance " + json.dumps(document["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
