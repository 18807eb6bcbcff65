"""The repository's benchmark: one workload per run, one JSON line out.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 32 --trace 0

Workloads: ``zoo-cold``, ``serve-hot``, ``serve-novel``, ``zoo-simulated``
(see README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  A
traced run also prints the per-layer span table and writes a Chrome
trace-event file under ``perfbench/.out/``.  ``--smoke`` runs the same code
on tiny inputs in seconds.
"""

from __future__ import annotations

import time

_PERF_AT_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started (Linux /proc; 0 elsewhere)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


#: perf_counter reading at process start.
STARTED = _PERF_AT_IMPORT - _process_age()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR,
    FULL,
    SMOKE,
    MissingProgram,
    median,
    result_line,
    use_checkout_source,
)

#: set-ups measured per zoo run: this process plus fresh re-runs.
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="cap on the timed part, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; every check and the traced path")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _worker_count() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _extra_setups(args: argparse.Namespace, count: int) -> list:
    """Set-up seconds of ``count`` fresh processes doing only the set-up."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _write_trace(ctx, workload: str, seed: int) -> str:
    from tracer import render_table

    tracers = [("benchmark", os.getpid(), ctx.tracer)] + [
        ("server", pid, spans) for pid, spans in ctx.server_spans]
    origin = min((span.start for _, _, t in tracers for span in t.spans),
                 default=0.0)
    events = []
    for label, pid, tracer in tracers:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        events += tracer.chrome_events(pid, origin)
        print(f"per-layer spans ({label} process):")
        print(render_table(tracer.table()))
    out_dir = BENCH_DIR / ".out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-s{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return str(path)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import suite
    from tracer import Tracer

    if args.workload not in suite.RUNNERS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(suite.RUNNERS)}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix="run-", dir=_work_root())
    ctx = suite.Context(
        inputs=SMOKE if args.smoke else FULL,
        seed=args.seed,
        seconds=args.seconds,
        tracer=Tracer() if args.trace else None,
        started=STARTED,
        workers=_worker_count(),
        work_dir=work_dir,
        setup_only=args.setup_only,
    )
    try:
        outcome = suite.RUNNERS[args.workload](ctx)
    except suite.SetupComplete as done:
        print(f"{done.args[0]:.6f}")
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        print(f"chrome trace: {_write_trace(ctx, args.workload, args.seed)}")
        # End-to-end figures under tracing, for the tracing overhead only;
        # end-to-end metrics come from untraced runs.
        outcome.metrics["setup_s"] = ctx.setup_samples[0]
        print("traced end-to-end: " + json.dumps(outcome.metrics))
        metrics = {name: (outcome.layers[name], unit)
                   for name, unit in suite.PER_LAYER.items()}
    else:
        setups = list(ctx.setup_samples)
        if args.workload.startswith("zoo-"):
            setups += _extra_setups(args, SETUP_REPEATS - 1)
        outcome.metrics["setup_s"] = median(setups)
        metrics = {name: (outcome.metrics[name], unit)
                   for name, unit in suite.END_TO_END.items()}
    unexpected = [f for f in ctx.failures if not suite.is_known_fault(f)]
    for failure in ctx.failures:
        kind = "FAILED" if failure in unexpected else "KNOWN FAULT"
        print(f"{kind} {failure}", file=sys.stderr)
    print(result_line(not unexpected, outcome.attempted, outcome.failed,
                      metrics))
    return 0


def _work_root() -> str:
    root = BENCH_DIR / ".work"
    root.mkdir(exist_ok=True)
    return str(root)


if __name__ == "__main__":
    sys.exit(main())
