"""Benchmark of ``sparse_fft``: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload exact-d6 --seed 1 --seconds 20 --trace 0

The workload seed generates a cycle of problems (see ``workloads.py``).  After
set-up (import, input generation, one discarded warm-up solve) the benchmark
solves the cycle in order, at least once and until ``--seconds`` have passed,
and checks every solve.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates bare and traced solves of each
problem and reports the per-layer metrics, writing the spans of the traced
solves to ``.perfbench/``.  The last line of standard output is the result
object; the line before it holds the run's environment and details.

Everything runs in one process on one thread: the BLAS and OpenMP pools are
pinned to one thread before NumPy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: fresh-process set-ups measured in addition to the measuring process's own
EXTRA_SETUPS = 2


def import_sfft():
    """Import ``sfft`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sfft" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sfft package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import sfft

    if Path(sfft.__file__).resolve().parent != src / "sfft":
        raise SystemExit(f"perfbench: imported sfft from {sfft.__file__}, not from {src}")
    return sfft


class Bench:
    """A set-up workload: inputs generated and the warm-up solve done."""

    def __init__(self, name: str, seed: int, small: bool):
        start = time.perf_counter()
        import_sfft()
        import workloads

        self.workload = workloads.WORKLOADS[name](seed, small)
        case = self.workload.cases[0]
        import sfft

        sfft.sparse_fft(case.oracle(), case.cfg)
        self.setup_s = time.perf_counter() - start


def _solve(workload, case, tracer=None):
    """One checked solve: (report or None, seconds, failure message or None)."""
    import sfft
    import spans

    oracle = case.oracle()
    before = oracle.call_count
    start = time.perf_counter()
    try:
        if tracer is None:
            report = sfft.sparse_fft(oracle, case.cfg)
        else:
            with spans.traced(tracer), tracer.span(spans.SOLVE, fn="sparse_fft"):
                report = sfft.sparse_fft(spans.TracedOracle(oracle, tracer), case.cfg)
    except Exception:  # a solve that raises is counted as failed, not fatal
        return None, time.perf_counter() - start, "raised " + traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    calls = oracle.call_count - before
    if report.oracle_calls != calls:
        return report, seconds, f"report.oracle_calls {report.oracle_calls} != oracle count {calls}"
    steps = sum(report.detection_calls) + sum(report.inversion_calls)
    if report.oracle_calls != steps:
        return report, seconds, f"report.oracle_calls {report.oracle_calls} != per-step sum {steps}"
    return report, seconds, workload.check(case, report)


def _same_result(a, b) -> bool:
    return a.oracle_calls == b.oracle_calls and a.detected.support() == b.detected.support()


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Solve the cycle until ``seconds`` pass (at least once); return (metrics, details)."""
    import spans

    workload = bench.workload
    cases = workload.cases
    first: list = [None] * len(cases)
    bare_times: list[float] = []
    traced_times: list[float] = []
    traced_solves: list = []
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        k = i % len(cases)
        runs = [None, spans.Tracer()] if trace else [None]
        for tracer in runs:
            report, elapsed, problem = _solve(workload, cases[k], tracer)
            attempted += 1
            if report is not None:
                if first[k] is None:
                    first[k] = report
                elif problem is None and not _same_result(first[k], report):
                    problem = "differs from an earlier solve of the same problem"
            if tracer is None:
                bare_times.append(elapsed)
            elif report is not None:
                traced_times.append(tracer.spans[0].seconds)
                traced_solves.append((tracer.spans, report))
                problem = problem or "; ".join(spans.solve_checks(tracer.spans, report)) or None
            if problem is not None:
                failures.append(f"problem {k}: {problem}")
        i += 1

    details = {
        "cycle": len(cases),
        "solves": len(bare_times),
        "solve_s_quantiles": _quantiles(bare_times),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
    }
    if not trace:
        import workloads

        metrics = {"solve_s": statistics.median(bare_times)}
        done = [(case, report) for case, report in zip(cases, first) if report is not None]
        if done:  # else every solve raised, and the run is already incorrect
            metrics["samples"] = statistics.fmean(r.oracle_calls for _, r in done)
            errors = [workload.error(case, report) for case, report in done]
            metrics["rel_err"] = max(workloads.ROUNDOFF_FLOOR, statistics.fmean(errors))
        metrics["solved_frac"] = (attempted - len(failures)) / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, details

    metrics, missing = spans.layer_metrics(traced_solves, workload.layers)
    if traced_times:
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(bare_times) - 1
        )
    details.update(missing=missing, traced_solves=len(traced_solves))
    details["spans"] = [[asdict(s) for s in solve] for solve, _ in traced_solves]
    return metrics, details


def _quantiles(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _child_setup(args) -> float:
    """Set-up seconds of a fresh process (import, inputs, warm-up solve)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def load_spec() -> dict:
    """The benchmark's ``BENCHMARK.json``: workload names, metrics and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--small", action="store_true",
                        help="scaled-down inputs of the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up seconds of this process and exit")
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bench = Bench(args.workload, args.seed, args.small)
    if args.setup_only:
        print(json.dumps({"setup_s": bench.setup_s}))
        return 0
    setups = [bench.setup_s]
    if not args.trace:
        setups += [_child_setup(args) for _ in range(EXTRA_SETUPS)]

    metrics, details = measure(bench, args.seconds, bool(args.trace))
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    span_log = details.pop("spans", None)
    if span_log is not None:
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        with out.open("w") as fh:
            for solve in span_log:
                fh.write(json.dumps(solve) + "\n")

    correct = not details["failed"] and not details.get("missing")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "small": args.small, "setup_s_runs": setups,
            **details, **_environment()}
    result = {
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
