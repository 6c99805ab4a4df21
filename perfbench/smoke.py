"""Smoke test of the benchmark itself, at tiny sizes (n=2000, step 0.02).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, and checks that:
every metric named in BENCHMARK.json is printed with its unit; no op
fails; the traced self times plus ``cli.self_s`` add up to the traced
op time; every span the run recorded has a metric; and a wrong
expected value makes the op fail.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run

# One reference value per workload, shifted far outside its tolerance.
WRONG_EXPECTED = {
    "reproduce": {"true_contrast": 0.3},
    "estimate-rows": {"beta": 0.0},
    "fine-grid": {"rate_contrast": 0.2},
    "frailty": {"gamma_gap": 0.05},
}


def _run(name: str, trace: int, overrides=None) -> tuple[dict, str]:
    import workloads  # importable once run.import_program has set sys.path

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(
            ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            sizes=workloads.TINY,
            expected_overrides=overrides,
        )
    text = buf.getvalue()
    if rc != 0:
        raise AssertionError(f"{name}: exit code {rc}\n{text}")
    return json.loads(text.splitlines()[-1]), text


def _check_metrics(where: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if printed != want:
        problems.append(f"{where}: printed {printed}, BENCHMARK.json declares {want}")
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']}")
    return problems


def main() -> int:
    run.cap_threads()
    run.import_program()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        result, text = _run(name, 0)
        problems += _check_metrics(f"{name} --trace 0", result, bench["end_to_end"])
        if result["failed"] or not result["correct"]:
            problems.append(f"{name}: ops failed at tiny sizes\n{text}")

        result, text = _run(name, 1)
        problems += _check_metrics(f"{name} --trace 1", result, bench["per_layer"])
        if result["failed"] or not result["correct"]:
            problems.append(f"{name} --trace 1: ops failed\n{text}")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(v for k, v in m.items() if k.endswith(".self_s"))
        if not math.isclose(accounted, m["trace.op_s"], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{name}: self times sum to {accounted}, op took {m['trace.op_s']}")
        record = json.loads(
            (run.OUT / f"{name}-seed3-trace1.json").read_text()
        )
        unmeasured = {
            span for span in record["span_names"] if f"{span}.self_s" not in m
        }
        if unmeasured:
            problems.append(f"{name}: spans without a metric: {sorted(unmeasured)}")

        result, _ = _run(name, 0, WRONG_EXPECTED[name])
        if (result["attempted"], result["failed"], result["correct"]) != (1, 1, False):
            problems.append(f"{name}: a wrong expected value gave {result}")

    for problem in problems:
        print(problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
