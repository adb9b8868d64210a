"""Run one benchmark workload and print its metrics as JSON on the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload traj-unique --seed 1 --seconds 36 --trace 0

One run, in one fresh interpreter, makes the workload's inputs from
``--seed`` and then measures ``SETUP_REPEATS`` rounds.  Each round:

1. sets the server up from scratch (timed: ``setup_s`` is the median);
2. drives it from one generator thread: an open-loop phase at the workload's
   offered rate with Poisson arrivals (``OPEN_SHARE`` of the round; each
   request is timed from its due time), then a closed-loop saturation phase
   keeping a fixed window in flight, then write probes: one 64-trajectory
   wave at a time through ``submit_ingest``, each waited out until a
   published generation holds it and then read back by one query, which
   makes a worker restore that generation;
3. shuts the server down and checks every output (``perfbench/checks.py``).

``setup_s`` is the median of the rounds' set-ups.  Every other metric pools
the rounds: percentiles are taken over all rounds' samples together, rates
and costs are totals over total time.  The set-ups sit between the rounds,
so the pooled samples are spread over the whole run.  ``rss_peak_mb`` is
the peak resident set of the serving windows (set-up excluded), the median
over the rounds.  ``query_p99_ms`` is measured the same way but travels on
the report line only (see :data:`REPORT_ONLY`).

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` each round first measures an untraced closed-loop phase, then
switches on the span wrappers of ``perfbench/tracing.py`` (installed before
set-up, because the engine binds the model's ``encode`` when it is built)
and the last line carries the per-layer metrics.  The line before the last
records the environment and, for every timing, the percentile used and its
sample count.  A failed output check prints ``"correct": false`` with no
metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "achieved_qps": "1/s",
    "peak_qps": "1/s",
    "cpu_ms_per_query": "ms",
    "rss_peak_mb": "MB",
    "ingest_visible_p50_ms": "ms",
    "ingest_visible_p90_ms": "ms",
}
END_TO_END_BETTER = {"achieved_qps": "higher", "peak_qps": "higher"}
#: Measured in every untraced run and printed on the report line, but not an
#: end-to-end metric: on a shared 2-core virtual machine the open-loop p99
#: follows the host's steal time (two runs of the same code read 9 and 16 ms)
#: more than the program, so no 25% regression bound holds on it.
REPORT_ONLY = ("query_p99_ms",)
STATUS = Path("/proc/self/status")
CLEAR_REFS = Path("/proc/self/clear_refs")
#: Per-layer metrics computed per request (the rest come from tracing.layer_metrics).
REQUEST_LAYER_METRICS = (
    "server.queue_wait_ms.p50",
    "server.queue_wait_ms.p99",
    "trace.untraced_ms.p50",
    "loadgen.late_ms.p99",
    "trace.overhead_frac",
)
#: Share of each round spent in the open-loop phase; the rest is closed-loop.
OPEN_SHARE = 0.7
#: Hard stop well inside the 180 s a run may take.
WATCHDOG_SECONDS = 170.0


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy loaded (``None`` if it cannot be asked)."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _reset_peak_rss() -> bool:
    """Start a new resident-set peak (Linux ``clear_refs``); False where unsupported."""
    try:
        CLEAR_REFS.write_text("5")
    except OSError:
        return False
    return True


def _peak_rss_mb() -> float:
    """Resident-set peak since the last reset (the process peak without one)."""
    for line in STATUS.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM line in {STATUS}")


def _visibility(sent: list[tuple[float, list]], publishes: list[tuple[float, int]], base: int):
    """Seconds from each wave's submit to the first publish that holds it (inf if none)."""
    out = []
    rows = base
    for submitted, wave in sent:
        rows += len(wave)
        visible = next((t for t, held in publishes if held >= rows and t >= submitted), None)
        out.append(float("inf") if visible is None else visible - submitted)
    return out


def _wait_visible(hooks, rows: int, timeout: float) -> None:
    deadline = time.perf_counter() + timeout
    while not any(held >= rows for _, held in hooks.publishes):
        if time.perf_counter() > deadline:
            return
        time.sleep(0.0005)


class Quantiles:
    """Collects reported percentiles with their sample counts."""

    def __init__(self) -> None:
        self.detail: dict[str, dict] = {}

    def take(self, name: str, samples: list[float], q: float) -> float:
        """Percentile ``q`` of ``samples`` (seconds), in milliseconds."""
        from perfbench import stats

        result = stats.quantile(samples, q)
        if result is None:
            raise RuntimeError(f"{name}: {len(samples)} samples support no percentile")
        self.detail[name] = {"q": result.q, "n": result.n}
        return result.value * 1e3


@dataclass
class Round:
    """What one measurement round measured, reduced to samples and totals.

    Requests and responses are dropped once checked, so later rounds do not
    run with earlier rounds' objects on the collector's heap; only the trace
    run keeps its open-loop requests, for the per-request accounting.
    """

    setup_s: float
    latencies: list[float]   # open loop, due time to completion (inf: failed)
    open_completed: int
    open_span_s: float       # open-loop start to its last completion
    open_cpu_s: float
    closed_completed: int    # completed inside the closed-loop window
    closed_s: float
    reference_completed: int | None  # the same, untraced (trace run only)
    rss_peak_mb: float
    rss_window: bool         # False: the peak could not be reset after set-up
    queries: int
    queries_failed: int
    waves: int
    waves_failed: int
    visibility: list[float]  # seconds per accepted wave (inf: never published)
    problems: list[str]
    open_requests: list | None = None


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from perfbench import workloads

    rounds = workloads.SETUP_REPEATS
    open_s = OPEN_SHARE * seconds / rounds
    closed_s = (1.0 - OPEN_SHARE) * seconds / rounds
    # Every round starts from a fresh server, so the rounds send the same waves.
    inputs = workloads.make_inputs(workload, seed, workloads.PROBE_WAVES)
    tracer = None
    if trace:
        from perfbench import tracing

        tracer = tracing.Tracer().install()
    expected: dict = {}
    results = []
    try:
        for number in range(rounds):
            results.append(
                _round(workload, inputs, number, open_s, closed_s, tracer, workdir, expected)
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    return _summarise(results, tracer)


def _round(workload, inputs, number, open_s, closed_s, tracer, workdir, expected) -> Round:
    """Set up once (timed), measure one round, shut down and check the outputs."""
    from perfbench import checks, loadgen, workloads

    started = time.perf_counter()
    served = workloads.set_up(workdir, inputs, workload, number)
    setup_s = time.perf_counter() - started
    runtime, hooks = served.runtime, served.hooks
    # Collect the set-up's garbage now, not at a random moment of the window.
    gc.collect()
    rss_window = _reset_peak_rss()

    reference_completed = None
    if tracer is not None:
        requests, start = loadgen.closed_loop(
            runtime.submit,
            inputs.stream(workload.hot),
            window=workloads.CLOSED_WINDOW,
            duration=closed_s,
        )
        reference_completed = loadgen.completed_by(requests, start + closed_s)
        loadgen.wait_all(requests, timeout=60.0)
        tracer.active = True

    # Drawn only now, so queries go out in the order they were drawn and a
    # unique stream never meets its own recent queries in the cache.
    offsets = loadgen.poisson_schedule(workload.query_rate, open_s, inputs.rng)
    payloads = list(itertools.islice(inputs.stream(workload.hot), len(offsets)))
    cpu_start = _cpu_seconds()
    open_requests, open_start = loadgen.open_loop(runtime.submit, payloads, offsets)
    loadgen.wait_all(open_requests, timeout=60.0)
    open_cpu_s = _cpu_seconds() - cpu_start
    closed_requests, closed_start = loadgen.closed_loop(
        runtime.submit,
        inputs.stream(workload.hot),
        window=workloads.CLOSED_WINDOW,
        duration=closed_s,
    )
    closed_completed = loadgen.completed_by(closed_requests, closed_start + closed_s)
    loadgen.wait_all(closed_requests, timeout=60.0)

    base = workloads.CORPUS_ROWS
    sent, wave_failures = [], 0
    read_backs, read_back_rows = [], []
    rows = base
    for wave in inputs.waves:
        submitted = time.perf_counter()
        try:
            runtime.submit_ingest(wave)
        except Exception:
            wave_failures += 1
            continue
        sent.append((submitted, wave))
        read_back_rows.append(rows)
        rows += len(wave)
        _wait_visible(hooks, rows, timeout=30.0)
        query = workloads.QueryRequest(queries=[wave[0]], k=workloads.K)
        requests, _ = loadgen.open_loop(runtime.submit, [query], [0.0])
        loadgen.wait_all(requests, timeout=30.0)
        read_backs += requests
    visibility = _visibility(sent, list(hooks.publishes), base)
    rss_peak_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.active = False
    runtime.shutdown()

    engine = runtime.primary
    problems = checks.check_ingested(engine, base, [wave for _, wave in sent])
    problems += checks.check_read_back(engine, read_backs, read_back_rows)
    # Every set-up is deterministic; answers are shared between rounds only
    # when the model and the rows are bitwise the same.
    setup_id = workloads.setup_digest(engine.model, served.corpus)
    reference = None

    def sequential(payload):
        nonlocal reference
        if reference is None:
            reference = workloads.reference_engine(engine.model, served.corpus)
        return reference.query(workloads.QueryRequest(queries=list(payload.queries), k=workloads.K))

    answered = open_requests + closed_requests
    problems += checks.check_against_reference(
        answered,
        reference=sequential,
        key=lambda payload: (setup_id, payload.queries[0].trajectory_id),
        expected=expected,
    )
    answered += read_backs
    done = [r.done for r in open_requests if r.ok]
    return Round(
        setup_s=setup_s,
        latencies=[r.latency for r in open_requests],
        open_completed=len(done),
        open_span_s=max(done) - open_start if done else open_s,
        open_cpu_s=open_cpu_s,
        closed_completed=closed_completed,
        closed_s=closed_s,
        reference_completed=reference_completed,
        rss_peak_mb=rss_peak_mb,
        rss_window=rss_window,
        queries=len(answered),
        queries_failed=sum(1 for r in answered if not r.ok),
        waves=len(sent) + wave_failures,
        waves_failed=wave_failures + sum(1 for v in visibility if v == float("inf")),
        visibility=visibility,
        problems=problems,
        open_requests=open_requests if tracer is not None else None,
    )


def _summarise(rounds: list[Round], tracer) -> dict:
    """Pool the rounds: percentiles over all samples, rates and costs over totals."""
    quantiles = Quantiles()
    latencies = [v for r in rounds for v in r.latencies]
    open_completed = sum(r.open_completed for r in rounds)
    closed_s = sum(r.closed_s for r in rounds)
    # Too few waves in one round for percentiles of their own: pool them too.
    visibility = [v for r in rounds for v in r.visibility]
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "query_p50_ms": quantiles.take("query_p50_ms", latencies, 0.5),
        "query_p99_ms": quantiles.take("query_p99_ms", latencies, 0.99),
        "achieved_qps": open_completed / sum(r.open_span_s for r in rounds),
        "peak_qps": sum(r.closed_completed for r in rounds) / closed_s,
        "cpu_ms_per_query": sum(r.open_cpu_s for r in rounds) / max(1, open_completed) * 1e3,
        "rss_peak_mb": statistics.median(r.rss_peak_mb for r in rounds),
        "ingest_visible_p50_ms": quantiles.take("ingest_visible_p50_ms", visibility, 0.5),
        "ingest_visible_p90_ms": quantiles.take("ingest_visible_p90_ms", visibility, 0.9),
    }
    per_round = {
        "setup_s": [r.setup_s for r in rounds],
        "peak_qps": [r.closed_completed / r.closed_s for r in rounds],
        "rss_peak_mb": [r.rss_peak_mb for r in rounds],
    }

    attempted = sum(r.queries + r.waves for r in rounds)
    failed = sum(r.queries_failed + r.waves_failed for r in rounds)
    outcome = {
        "problems": [p for r in rounds for p in r.problems],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "per_round": per_round,
        "rss_window": all(r.rss_window for r in rounds),
        "samples": quantiles.detail,
    }
    if tracer is None:
        outcome["report_only"] = {name: metrics[name] for name in REPORT_ONLY}
        outcome["metrics"] = {
            name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()
        }
        return outcome

    from perfbench import tracing

    open_requests = [q for r in rounds for q in r.open_requests]
    values, detail = tracing.layer_metrics(tracer.spans)
    accounting = tracing.account(tracer.spans, open_requests)
    layer = Quantiles()
    for name, samples, q in (
        ("server.queue_wait_ms.p50", accounting.queue_wait, 0.5),
        ("server.queue_wait_ms.p99", accounting.queue_wait, 0.99),
        ("trace.untraced_ms.p50", accounting.untraced, 0.5),
        ("loadgen.late_ms.p99", [request.late for request in open_requests], 0.99),
    ):
        values[name] = layer.take(name, samples, q)
    untraced_peak = sum(r.reference_completed for r in rounds) / closed_s
    values["trace.overhead_frac"] = 1.0 - metrics["peak_qps"] / untraced_peak
    outcome["samples"].update(detail)
    outcome["samples"].update(layer.detail)
    parts = ("latency", "late", "queue_wait", "service", "untraced")
    # Means add up: mean latency = late + queue_wait + service + untraced, and
    # the per-layer self times add up to service.  Medians need not add up.
    outcome["accounting"] = {
        "requests": len(accounting.latency),
        "mean_ms": {part: statistics.fmean(getattr(accounting, part)) * 1e3 for part in parts},
        "median_ms": {
            part: statistics.median(getattr(accounting, part)) * 1e3 for part in parts
        },
        "mean_self_ms_per_request": {k: v * 1e3 for k, v in accounting.self_by_layer.items()},
        "untraced_peak_qps": untraced_peak,
    }
    outcome["end_to_end_traced"] = metrics
    outcome["metrics"] = {name: (value, _unit(name)) for name, value in values.items()}
    return outcome


def _unit(name: str) -> str:
    """Per-layer units: timings are ms percentiles, fractions are 1, the rest counts."""
    if name.endswith((".p50", ".p99")):
        return "ms"
    if name.endswith("_frac"):
        return "1"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {ROOT / 'src'}; run from a checkout of the repository")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    watchdog = threading.Timer(WATCHDOG_SECONDS, lambda: (
        print("perfbench: watchdog expired", file=sys.stderr, flush=True), os._exit(3)))
    watchdog.daemon = True
    watchdog.start()
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)  # server replicas and checkpoints stay in the checkout
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
        watchdog.cancel()
    correct = not outcome["problems"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **{k: v for k, v in outcome.items() if k != "metrics"},
    }
    print(json.dumps({"report": report}, default=str))
    for problem in outcome["problems"][:5]:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()
    } if correct else {}
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
