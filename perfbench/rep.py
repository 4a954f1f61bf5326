"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so peak memory, the
process-wide worker pool and every cache belong to one repetition. It
prints one JSON object on its last line of output:

* ``import_s`` / ``build_s`` / ``run_s``: interpreter start to program
  imported, world build, and the measured call;
* ``setup_slowness`` / ``run_slowness``: the host's slowness over the
  imports and build, and over the measured call (``hostspeed.py``),
  sampled in this process and the pool workers it forks; None in
  traced repetitions, which are not sampled;
* ``ops``, ``failures`` and ``digest`` from the workload's checks;
* ``peak_rss_mb``: this process's peak resident set plus that of every
  child process still alive at the end of the run (the campaign's pool
  workers);
* ``layers``: the per-layer account when ``--trace`` is not ``off``.

``--trace layers`` traces every layer; ``--trace parallel`` traces only
the parent side of ``core.parallel``.
"""

import hostspeed

SAMPLER = hostspeed.Sampler()
SAMPLER.start()
_STARTED = SAMPLER.reading()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _status_kb(pid: str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _child_pids() -> list:
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.append(entry)
    return children


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children, in MB."""
    try:
        total_kb = _status_kb("self", "VmHWM")
        for pid in _child_pids():
            try:
                total_kb += _status_kb(pid, "VmHWM")
            except OSError:
                continue
        return total_kb / 1024.0
    except OSError:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_maxrss / 1024.0


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_once(args) -> dict:
    import tracing
    import workloads
    expected_path = os.path.join(HERE, "expected.json")
    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.size, expected, args.workers, OUT)
    tracing.import_targets()
    tracer = None
    if args.trace != "off":
        SAMPLER.stop()  # its slices would land inside the traced spans
        layers = (("parallel",) if args.trace == "parallel"
                  else tracing.LAYERS)
        tracer = tracing.Tracer(args.run_id, layers)
        tracer.install()
    imported = SAMPLER.reading()
    if tracer is not None:
        tracer.open_region()
    workload.setup()
    built = SAMPLER.reading()
    workload.run()
    finished = SAMPLER.reading()
    SAMPLER.stop()
    setup = hostspeed.phase(_STARTED, built)
    run = hostspeed.phase(built, finished)
    if tracer is not None:
        tracer.close_region()
        tracer.uninstall()
    peak = peak_rss_mb()
    try:
        outcome = workload.check()
    finally:
        workload.close()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "params": workload.params,
        "import_s": hostspeed.phase(_STARTED, imported).wall_s,
        "build_s": hostspeed.phase(imported, built).wall_s,
        "run_s": run.wall_s,
        "setup_slowness": setup.slowness,
        "run_slowness": run.slowness,
        "ops": outcome.ops,
        "failures": outcome.failures,
        "notes": outcome.notes,
        "digest": outcome.digest,
        "peak_rss_mb": peak,
        "cpu_s": cpu_seconds(),
    }
    if tracer is not None:
        result["layers"] = {name: list(value) for name, value
                            in tracing.layer_metrics(tracer).items()}
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", default="off",
                        choices=("off", "layers", "parallel"))
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--spans", default="",
                        help="write the traced spans to this path")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    try:
        result = run_once(args)
    except Exception as error:  # reported to run.py as a failed repetition
        traceback.print_exc()
        result = {"workload": args.workload, "seed": args.seed,
                  "error": f"{type(error).__name__}: {error}"}
        print(json.dumps(result))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
