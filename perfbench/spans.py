"""Span tracing of sfft's layers from outside the package.

While :func:`traced` is active, the layer functions that ``sfft.detect`` calls
through its module globals are rebound to wrappers that record one span per
call (name, start, end, parent span, counts).  The oracle is wrapped by
:class:`TracedOracle`.  Nothing under ``src/`` changes; leaving the context
restores the original functions.

The engine is single-threaded, so spans nest strictly: a child lies inside its
parent and siblings do not overlap.  :func:`solve_checks` verifies this, and
the per-step sample counts against the engine's own report.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import sfft
import sfft.detect

ORACLE = "testbed.oracle"
SOLVE = "detect.solve"
LINE = "detect.line"
CONSTRUCT = "construct"
INVERT = "transform.invert"
NODES = "lattice.nodes"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; the current span is the parent of new ones."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, time.perf_counter(), attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()


class TracedOracle:
    """Oracle proxy recording one span per evaluation.

    Unknown attributes (``dim``, ``call_count`` and any later capability) are
    forwarded to the wrapped oracle, so the engine sees what it would see
    without the proxy.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, points):
        with self._tracer.span(ORACLE, fn="oracle", points=len(points)):
            return self._inner(points)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _describe_multiple(args, result) -> dict:
    scheme, attempts = result
    candidates = args["I"]
    return {
        "step": candidates.dim - 1,
        "candidates": len(candidates),
        "covered": int(scheme.covered_mask.sum()),
        "size": scheme.total_size,
        "max_m": max(lat.m for lat in scheme.lattices),
        "attempts": attempts,
    }


def _describe_single(args, lat) -> dict:
    candidates = args["I"]
    res = sfft.residues(candidates, lat.z, lat.m)
    covered = int(np.sum(np.bincount(res, minlength=lat.m)[res] == 1))
    return {
        "step": candidates.dim - 1,
        "candidates": len(candidates),
        "covered": covered,
        "size": lat.m,
        "max_m": lat.m,
        "attempts": 1,
    }


#: function name in sfft.detect -> (span name, counts taken from arguments and result)
LAYER_FUNCTIONS = {
    "detect_component": (LINE, lambda a, r: {"step": a["t"]}),
    "build_multiple_lattice_with_retries": (CONSTRUCT, _describe_multiple),
    "build_single_lattice_cbc": (CONSTRUCT, _describe_single),
    "invert_multiple": (INVERT, lambda a, r: {"nodes": sum(s.lattice.m for s in a["samples"])}),
    "invert_single": (INVERT, lambda a, r: {"nodes": a["samples"].lattice.m}),
    "lattice_nodes": (NODES, lambda a, r: {"points": a["lat"].m}),
}


def _wrap(tracer: Tracer, name: str, fn):
    span_name, describe = LAYER_FUNCTIONS[name]
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        with tracer.span(span_name, fn=name) as record:
            result = fn(*args, **kwargs)
        # counted after the span closes, so the span times only the layer
        record.attrs.update(describe(signature.bind(*args, **kwargs).arguments, result))
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Rebind the layer functions in ``sfft.detect`` to recording wrappers.

    A function that ``sfft.detect`` no longer has is left out; the benchmark
    then reports it as missing, since it never records a span.
    """
    saved = {name: getattr(sfft.detect, name) for name in LAYER_FUNCTIONS
             if hasattr(sfft.detect, name)}
    for name, fn in saved.items():
        setattr(sfft.detect, name, _wrap(tracer, name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(sfft.detect, name, fn)


def solve_checks(spans: list[Span], report) -> list[str]:
    """Problems with the spans of one traced solve (``spans[0]`` is its root)."""
    problems = []
    last_end: dict[int, float] = {}  # per parent, end of its latest child
    for i, s in enumerate(spans[1:], start=1):
        parent = spans[s.parent]
        if not parent.start <= s.start <= s.end <= parent.end:
            problems.append(f"span {i} ({s.name}) is not inside its parent")
        if s.start < last_end.get(s.parent, -np.inf):
            problems.append(f"span {i} ({s.name}) overlaps a sibling")
        last_end[s.parent] = s.end

    d = len(report.detection_calls)
    detection = [0] * d
    inversion = [0] * d
    step = None  # inversions belong to the step of the latest construction
    for s in spans:
        if s.name == CONSTRUCT and s.parent == 0:
            step = s.attrs["step"]
        elif s.name == ORACLE:
            parent = spans[s.parent]
            if parent.name == LINE:
                detection[parent.attrs["step"]] += s.attrs["points"]
            elif s.parent == 0 and step is not None:
                inversion[step] += s.attrs["points"]
            else:
                problems.append(f"oracle span under {parent.name} belongs to no step")
    if detection != list(report.detection_calls):
        problems.append(f"line samples per step {detection} != report {report.detection_calls}")
    if inversion != list(report.inversion_calls):
        problems.append(f"inversion samples per step {inversion} != report {report.inversion_calls}")
    return problems


def layer_metrics(solves: list[tuple[list[Span], object]], expected: frozenset[str]):
    """Per-layer metrics over traced solves (per solve unless a ratio), and missing functions.

    A function in ``expected`` that recorded no span is missing: the metrics
    of its layer are left out, rather than reported as 0.
    """
    fired = {s.attrs["fn"] for spans, _ in solves for s in spans[1:]}
    missing = sorted(expected - fired)
    if not solves:  # every traced solve raised; those failures are counted
        return {}, missing
    lost = {ORACLE if fn == "oracle" else LAYER_FUNCTIONS[fn][0] for fn in missing}
    n = len(solves)
    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    max_m = 0
    for spans, report in solves:
        root = spans[0]
        add("self", root.seconds - sum(s.seconds for s in spans if s.parent == 0))
        add("candidates", sum(report.candidate_counts))
        add("prefixes", sum(report.prefix_counts))
        for s in spans[1:]:
            add(s.name + ".busy", s.seconds)
            add(s.name + ".calls", 1)
            for key, value in s.attrs.items():
                if key not in ("fn", "step"):
                    add(f"{s.name}.{key}", value)
            if s.name == ORACLE:
                parent = spans[s.parent].name
                add("line.samples" if parent == LINE else "inversion.samples", s.attrs["points"])
            if s.name == CONSTRUCT:
                max_m = max(max_m, s.attrs["max_m"])

    metrics = {
        "detect.inversion.samples": tot.get("inversion.samples", 0) / n,
        "detect.self_s": tot["self"] / n,
        "detect.candidates": tot["candidates"] / n,
        "detect.prefix_yield": tot["prefixes"] / tot["candidates"],
    }
    if tot.get(ORACLE + ".calls"):
        metrics.update({
            "testbed.oracle.busy_s": tot[ORACLE + ".busy"] / n,
            "testbed.oracle.calls": tot[ORACLE + ".calls"] / n,
            "testbed.oracle.points": tot[ORACLE + ".points"] / n,
            "testbed.oracle.us_per_point": 1e6 * tot[ORACLE + ".busy"] / tot[ORACLE + ".points"],
        })
    if tot.get(LINE + ".calls"):
        metrics.update({
            "detect.line.busy_s": tot[LINE + ".busy"] / n,
            "detect.line.samples": tot.get("line.samples", 0) / n,
        })
    if tot.get(CONSTRUCT + ".calls"):
        calls = tot[CONSTRUCT + ".calls"]
        cands = tot[CONSTRUCT + ".candidates"]
        metrics.update({
            "construct.busy_s": tot[CONSTRUCT + ".busy"] / n,
            "construct.calls": calls / n,
            "construct.attempts_per_call": tot[CONSTRUCT + ".attempts"] / calls,
            "construct.coverage": tot[CONSTRUCT + ".covered"] / cands,
            "construct.oversampling": tot[CONSTRUCT + ".size"] / cands,
            "construct.max_lattice_size": max_m,
        })
    if tot.get(INVERT + ".calls"):
        metrics.update({
            "transform.invert.busy_s": tot[INVERT + ".busy"] / n,
            "transform.invert.calls": tot[INVERT + ".calls"] / n,
            "transform.invert.nodes": tot[INVERT + ".nodes"] / n,
        })
    if tot.get(NODES + ".calls"):
        metrics.update({
            "lattice.nodes.busy_s": tot[NODES + ".busy"] / n,
            "lattice.nodes.points": tot[NODES + ".points"] / n,
        })
    kept = {k: v for k, v in metrics.items() if not any(k.startswith(p + ".") for p in lost)}
    return kept, missing
