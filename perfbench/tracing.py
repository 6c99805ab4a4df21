"""Spans around the calls into each hazrates layer, for the traced run.

``instrument(tracer)`` wraps the public functions that ``hazrates.cli``
and the workloads call, in the module that defines them and in the
``hazrates.cli`` namespace, and restores them on exit; nothing under
``src/`` changes.  Calls made inside a layer are not wrapped, so each
span is one call crossing a layer boundary and ``cli.self_s`` is the op
time the spans do not cover: the CLI's own parsing, CSV formatting and
glue.

Spans (name, start, end, parent, op id, tracemalloc peak) stay in
memory and are written out when the run ends.  tracemalloc slows
allocation-heavy Python code several times over, so self times and
counts come from ops traced with tracemalloc off, and the ``peak_mb``
metrics from ops traced with it on.  Counts are taken from
each call's arguments and result after its span has closed; the time
that takes is subtracted from the op, so the self times plus
``cli.self_s`` add up to ``trace.op_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

from hazrates import cli
from hazrates.kernels import GridKernel

MB = float(2**20)

# (name, unit, better) of every per-layer metric the traced run reports.
# The three simulate_cohort spans are disjoint: the default model, a
# tabulated GridKernel, and gamma frailty.
LAYER_METRICS = [
    ("construct.build.self_s", "s", "lower"),
    ("construct.build.sweeps", "count", "lower"),
    ("construct.build.peak_mb", "MB", "lower"),
    ("rates.rate_treated.self_s", "s", "lower"),
    ("rates.rate_treated.peak_mb", "MB", "lower"),
    ("rates.rate_ratio.self_s", "s", "lower"),
    ("contrast.potential_survival.self_s", "s", "lower"),
    ("contrast.rate_based_survival.self_s", "s", "lower"),
    ("contrast.causal_hazard_ratio.self_s", "s", "lower"),
    ("kernels.GridKernel.self_s", "s", "lower"),
    ("simulate.simulate_cohort.self_s", "s", "lower"),
    ("simulate.simulate_cohort.grid_kernel.self_s", "s", "lower"),
    ("simulate.simulate_cohort.gamma.self_s", "s", "lower"),
    ("simulate.sample_frailty_cohort.self_s", "s", "lower"),
    ("simulate.to_counting_rows.self_s", "s", "lower"),
    ("simulate.subjects", "count", "higher"),
    ("simulate.rows", "count", "higher"),
    ("simulate.peak_mb", "MB", "lower"),
    ("model.write_counting_rows.self_s", "s", "lower"),
    ("model.write_counting_rows.bytes", "bytes", "lower"),
    ("model.read_counting_rows.self_s", "s", "lower"),
    ("model.read_counting_rows.rows", "count", "higher"),
    ("estimators.nelson_aalen_by_treatment.self_s", "s", "lower"),
    ("estimators.extended_km.self_s", "s", "lower"),
    ("estimators.aalen_additive.self_s", "s", "lower"),
    ("estimators.cox_fit.current.self_s", "s", "lower"),
    ("estimators.cox_fit.duration.self_s", "s", "lower"),
    ("estimators.cox_fit.current.newton_iters", "count", "lower"),
    ("estimators.cox_fit.duration.newton_iters", "count", "lower"),
    ("estimators.aalen_additive.singular_times", "count", "lower"),
    ("estimators.events", "count", "higher"),
    ("frailty.marginal_hazard.self_s", "s", "lower"),
    ("frailty.markov_violation_gap.self_s", "s", "lower"),
    ("frailty.invert_rate_to_h.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# tracemalloc peaks: metric -> prefix of the span names it covers.
PEAKS = {
    "construct.build.peak_mb": "construct.build",
    "rates.rate_treated.peak_mb": "rates.rate_treated",
    "simulate.peak_mb": "simulate.",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    peak_bytes: int | None


@dataclass
class _Frame:
    index: int
    base: int
    peak: int


class Tracer:
    """In-memory spans and counts, grouped by op."""

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self.ops: list[tuple[float, float, bool]] = []  # (op time, bookkeeping, memory)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[_Frame] = []
        self._op: int | None = None
        self._next_span = 0
        self._memory = False
        self._bookkeeping = 0.0

    @property
    def active(self) -> bool:
        return self._op is not None

    @contextlib.contextmanager
    def op(self):
        """One op; its spans record memory peaks if tracemalloc is on."""
        self._op = len(self.ops)
        self._memory = tracemalloc.is_tracing()
        self._bookkeeping = 0.0
        start = perf_counter()
        try:
            yield
        finally:
            self.ops.append((perf_counter() - start, self._bookkeeping, self._memory))
            self._op = None
            self._stack.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        memory = self._memory
        current = 0
        if memory:
            # tracemalloc has one peak counter: fold it into the parent's
            # running peak before resetting it for the child, and back after.
            if parent is not None:
                parent.peak = max(parent.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
        frame = _Frame(index=self._next_span, base=current, peak=current)
        self._next_span += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            if memory:
                frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.peak = max(parent.peak, frame.peak)
                    tracemalloc.reset_peak()
            self.spans[frame.index] = Span(
                name, start, end, None if parent is None else parent.index,
                self._op, frame.peak - frame.base if memory else None,
            )

    def count(self, name: str, value: float) -> None:
        self.counts[self._op][name] += value

    def call(self, fn, name, counter, args, kwargs):
        """``fn(*args, **kwargs)`` in a span; its counts are taken off the clock."""
        span_name = name if isinstance(name, str) else name(args, kwargs)
        with self.span(span_name):
            result = fn(*args, **kwargs)
        if counter is not None:
            start = perf_counter()
            counter(self, span_name, args, kwargs, result)
            self._bookkeeping += perf_counter() - start
        return result

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, each the mean over the ops that measure it."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans.values():
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        per_op = [defaultdict(float) for _ in self.ops]
        for i, s in self.spans.items():
            values = per_op[s.op]
            values[f"{s.name}.self_s"] += s.end - s.start - covered[i]
            if s.parent is None:
                values["_top_s"] += s.end - s.start
            for metric, prefix in PEAKS.items():
                if s.peak_bytes is not None and s.name.startswith(prefix):
                    values[metric] = max(values[metric], s.peak_bytes / MB)
        for op, (op_s, bookkeeping, _) in enumerate(self.ops):
            values = per_op[op]
            values["trace.op_s"] = op_s - bookkeeping
            values["cli.self_s"] = values["trace.op_s"] - values["_top_s"]
            values.update(self.counts[op])
        timed = [v for v, (_, _, memory) in zip(per_op, self.ops) if not memory]
        peaked = [v for v, (_, _, memory) in zip(per_op, self.ops) if memory]
        out = {}
        for name, _, _ in LAYER_METRICS:
            group = peaked if name in PEAKS else timed
            if name != "trace.overhead_s":
                out[name] = sum(values[name] for values in group) / len(group)
        return out

    def span_names(self) -> set[str]:
        return {s.name for s in self.spans.values()}

    def dump(self, path) -> None:
        """Write the spans, times relative to the first op, as JSON."""
        t0 = min((s.start for s in self.spans.values()), default=0.0)
        records = []
        for i, s in sorted(self.spans.items()):
            rec = asdict(s)
            rec.update(id=i, start=s.start - t0, end=s.end - t0)
            records.append(rec)
        with open(path, "w") as fh:
            json.dump(records, fh)


def _events(rows) -> int:
    return sum(1 for r in rows if r.event)


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _simulate_cohort_name(args, kwargs) -> str:
    config = _arg(args, kwargs, 1, "config")
    if config.frailty is not None:
        kind = type(config.frailty).__name__.removesuffix("Frailty").lower()
        return f"simulate.simulate_cohort.{kind}"
    if isinstance(_arg(args, kwargs, 0, "model").lambda12, GridKernel):
        return "simulate.simulate_cohort.grid_kernel"
    return "simulate.simulate_cohort"


def _cox_fit_name(args, kwargs) -> str:
    return f"estimators.cox_fit.{_arg(args, kwargs, 1, 'covariates', 'current')}"


def _count_cox(tracer, name, args, kwargs, fit) -> None:
    tracer.count(f"{name}.newton_iters", fit.iterations)
    tracer.count("estimators.events", _events(_arg(args, kwargs, 0, "rows")))


def _count_aalen(tracer, name, args, kwargs, fit) -> None:
    tracer.count("estimators.aalen_additive.singular_times", fit.singular_times.size)
    tracer.count("estimators.events", _events(_arg(args, kwargs, 0, "rows")))


def _count_curves(tracer, name, args, kwargs, result) -> None:
    tracer.count("estimators.events", _events(_arg(args, kwargs, 0, "rows")))


# (module, function, span name or a function of the call's arguments,
#  counter run on (tracer, span name, args, kwargs, result) or None)
LAYER_CALLS = [
    ("construct", "build", "construct.build",
     lambda tr, n, a, k, report: tr.count("construct.build.sweeps", len(report.iterations))),
    # rate_ratio is defined in construct but evaluates the rate engine.
    ("construct", "rate_ratio", "rates.rate_ratio", None),
    ("rates", "rate_treated", "rates.rate_treated", None),
    ("contrast", "potential_survival", "contrast.potential_survival", None),
    ("contrast", "rate_based_survival", "contrast.rate_based_survival", None),
    ("contrast", "causal_hazard_ratio", "contrast.causal_hazard_ratio", None),
    ("kernels", "GridKernel", "kernels.GridKernel", None),
    ("simulate", "simulate_cohort", _simulate_cohort_name,
     lambda tr, n, a, k, cohort: tr.count("simulate.subjects", len(cohort))),
    ("simulate", "sample_frailty_cohort", "simulate.sample_frailty_cohort",
     lambda tr, n, a, k, cohort: tr.count("simulate.subjects", len(cohort))),
    ("simulate", "to_counting_rows", "simulate.to_counting_rows",
     lambda tr, n, a, k, rows: tr.count("simulate.rows", len(rows))),
    ("model", "write_counting_rows", "model.write_counting_rows",
     lambda tr, n, a, k, _: tr.count(f"{n}.bytes", os.path.getsize(_arg(a, k, 1, "path")))),
    ("model", "read_counting_rows", "model.read_counting_rows",
     lambda tr, n, a, k, rows: tr.count(f"{n}.rows", len(rows))),
    ("estimators", "nelson_aalen_by_treatment", "estimators.nelson_aalen_by_treatment",
     _count_curves),
    ("estimators", "extended_km", "estimators.extended_km", _count_curves),
    ("estimators", "aalen_additive", "estimators.aalen_additive", _count_aalen),
    ("estimators", "cox_fit", _cox_fit_name, _count_cox),
    ("frailty", "marginal_hazard", "frailty.marginal_hazard", None),
    ("frailty", "markov_violation_gap", "frailty.markov_violation_gap", None),
    ("frailty", "invert_rate_to_h", "frailty.invert_rate_to_h", None),
]


def _wrap(tracer: Tracer, fn, name, counter):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(fn, name, counter, args, kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the layer calls through ``tracer`` until the block exits."""
    patched = []
    try:
        for module_name, attr, name, counter in LAYER_CALLS:
            module = importlib.import_module(f"hazrates.{module_name}")
            original = getattr(module, attr)
            wrapper = _wrap(tracer, original, name, counter)
            for namespace in (module, cli):
                if getattr(namespace, attr, None) is original:
                    setattr(namespace, attr, wrapper)
                    patched.append((namespace, attr, original))
        yield
    finally:
        for namespace, attr, original in reversed(patched):
            setattr(namespace, attr, original)
