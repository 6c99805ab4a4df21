"""hazrates benchmark: four closed-loop workloads, one caller each.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits
in.  Set-up (a fresh interpreter importing the CLI, then the standard
build and the seeded inputs) is timed apart from the ops,
``SETUP_REPEATS`` times, reporting the median.  Ops then run back to back for about
``--seconds``, each checked against the model's values.

All reported times are wall-clock seconds (``time.perf_counter``)
scaled to a reference machine speed by the probe in
``calibration.py``, which takes about a tenth of the run, after every
set-up step and op; the raw times and probe readings are in the run
record.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` spends half the time on untraced ops and half on ops
with a span around each layer call, then runs one more traced op with
tracemalloc on for the memory peaks, and reports the per-layer
metrics; ``trace.overhead_s`` is the difference between the two
halves' median op times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (metrics,
op times, environment, failures) and the traced spans are written
under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("reproduce", "estimate-rows", "fine-grid", "frailty")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
# Share of each set-up step's and op's time spent after it in the speed probe.
PROBE_SHARE = 0.1

# (name, unit, better) of the end-to-end metrics, reported with --trace 0.
# Throughput (items_per_s) is items per op over op_s_p50, so it is printed
# and recorded but not gated a second time.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class ProgramMissing(Exception):
    """The checkout has no hazrates sources to benchmark."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable CPUs; must run before numpy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def import_program() -> None:
    """Import hazrates from this checkout's src/ into this process."""
    if not (SRC / "hazrates" / "__init__.py").is_file():
        raise ProgramMissing(f"no hazrates package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    hazrates = importlib.import_module("hazrates")
    importlib.import_module("hazrates.cli")
    if not Path(hazrates.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"hazrates was imported from {hazrates.__file__}, not {SRC}")


def fresh_import() -> None:
    """Import the CLI in a new interpreter, as each command-line run does."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", "import hazrates.cli"], env=env, cwd=ROOT, check=True)


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _probe(probes: list[float], busy_s: float) -> None:
    """Run the speed probe for PROBE_SHARE of ``busy_s``, at least once."""
    import calibration  # loads numpy, so only after cap_threads

    end = time.perf_counter() + PROBE_SHARE * busy_s
    probes.append(calibration.run())
    while time.perf_counter() < end:
        probes.append(calibration.run())


def _run_ops(wl, budget: float, probes: list[float], tracer=None) -> list[dict]:
    """Closed loop: issue, wait, check, probe the speed, repeat.

    Stops before an op that would overrun ``budget`` seconds, judged by
    the median op so far (checks included); always runs at least one.
    The speed probe is skipped while tracemalloc slows the interpreter.
    """
    ops: list[dict] = []
    walls: list[float] = []
    loop_start = time.perf_counter()
    while True:
        gc.collect()  # each op starts from the same collector state
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op()
            else:
                with tracer.op():
                    out = wl.op()
        except Exception as exc:  # a failed op is counted, not fatal
            op_s = time.perf_counter() - start
            traceback.print_exc()
            failures = [f"op raised {exc!r}"]
        else:
            op_s = time.perf_counter() - start
            try:
                failures = wl.check(out)
            except Exception as exc:
                traceback.print_exc()
                failures = [f"check raised {exc!r}"]
            del out
        mode = "plain" if tracer is None else "memory" if tracemalloc.is_tracing() else "spans"
        ops.append({"op_s": op_s, "mode": mode, "failures": failures})
        if mode != "memory":
            _probe(probes, op_s)
        walls.append(time.perf_counter() - start)
        if time.perf_counter() - loop_start + statistics.median(walls) > budget:
            return ops


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _times(ops: list[dict], mode: str) -> list[float]:
    return [op["op_s"] for op in ops if op["mode"] == mode]


def run_workload(name, seed, seconds, trace, sizes=None, expected_overrides=None) -> dict:
    """Set up and run one workload; returns the full record."""
    import_program()
    import calibration
    import tracing
    import workloads

    probes: list[float] = []
    sizes = sizes or workloads.FULL
    cls = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            fresh_import()
            wl = cls(sizes, seed, workdir)
            setup_times.append(time.perf_counter() - start)
            _probe(probes, setup_times[-1])
        wl.expected.update(expected_overrides or {})

        tracer = None
        if trace:
            ops = _run_ops(wl, seconds / 2, probes)
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                ops += _run_ops(wl, seconds / 2, probes, tracer)
                tracemalloc.start()
                try:
                    ops += _run_ops(wl, 0, probes, tracer)
                finally:
                    tracemalloc.stop()
        else:
            ops = _run_ops(wl, seconds, probes)
        if hasattr(wl, "after"):
            ops[0]["failures"] += wl.after()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every time below is wall seconds times this run's speed scale.
    scale = calibration.REFERENCE_S / statistics.median(probes)
    times = [t * scale for t in _times(ops, "plain")]
    record = {
        "workload": name,
        "env": environment(seed),
        "seconds": seconds,
        "trace": int(trace),
        "ops": ops,
        "probes_s": probes,
        "scale": scale,
        "op_s_p90": _p90(times),
        "items_per_s": wl.items / statistics.median(times),
        "setup_repeats_s": setup_times,
    }
    if trace:
        metrics = {
            metric: value * scale if metric.endswith("_s") else value
            for metric, value in tracer.metrics().items()
        }
        metrics["trace.overhead_s"] = scale * (
            statistics.median(_times(ops, "spans")) - statistics.median(_times(ops, "plain"))
        )
        units = {m: u for m, u, _ in tracing.LAYER_METRICS}
        record["span_names"] = sorted(tracer.span_names())
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": scale * statistics.median(setup_times),
            "op_s_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m: u for m, u, _ in END_TO_END}
    failed = sum(1 for op in ops if op["failures"])
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return record


def _report(record: dict) -> None:
    """Print the human-readable lines, save the record, print the result last."""
    n = sum(1 for op in record["ops"] if op["mode"] == "plain")
    print(f"# env {json.dumps(record['env'])}")
    print(
        f"# {record['workload']}: {len(record['ops'])} ops ({n} untraced), "
        f"op_s_p90 {record['op_s_p90']:.4f} s over {n} ops"
        + (" (ungated: fewer than 10 ops beyond p90)" if n < 100 else "")
        + f"; items_per_s {record['items_per_s']:.1f} at op_s_p50"
    )
    for i, op in enumerate(record["ops"]):
        for failure in op["failures"]:
            print(f"# op {i} failed: {failure}")
    name = f"{record['workload']}-seed{record['env']['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(record["result"]))


def _run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None, sizes=None, expected_overrides=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_threads()
    try:
        if args.workload == "all":
            import_program()
            return _run_all(args)
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), sizes, expected_overrides
        )
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
