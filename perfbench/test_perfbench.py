"""Fast self-tests of the benchmark harness (tiny scale, stub servers).

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, loadgen, run, stats, tracing
from repro.api import QueryRequest, QueryResponse

ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #
def _span(name, start, end, parent=None, **fields):
    span = tracing.Span(name, parent, **fields)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_nested_and_overlapping_children_once():
    parent = _span("p", 0.0, 10.0)
    children = [
        _span("a", 1.0, 3.0, parent),
        _span("b", 2.0, 5.0, parent),   # overlaps a: [1, 5] counts once
        _span("c", 8.0, 12.0, parent),  # runs past the parent: clipped to [8, 10]
    ]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    grandchild = _span("g", 2.5, 2.6, children[0])
    # Time a grandchild covers is already covered by its parent span.
    assert tracing.self_time(parent, children + [grandchild]) == pytest.approx(4.0)
    assert tracing.self_time(children[0], [grandchild]) == pytest.approx(2.0 - 0.1)


def test_covered_merges_disjoint_touching_and_contained_intervals():
    assert tracing.covered([], 0, 5) == 0.0
    assert tracing.covered([(0, 1), (1, 2), (4, 5)], 0, 5) == pytest.approx(3.0)
    assert tracing.covered([(0, 5), (1, 2)], 0, 5) == pytest.approx(5.0)
    assert tracing.covered([(-3, -1), (6, 9)], 0, 5) == 0.0


def test_request_latency_splits_into_late_queue_service_and_untraced():
    trajectory = object()
    vectors = np.zeros((1, 4), dtype=np.float32)
    request = loadgen.Request(index=0, payload=QueryRequest(queries=[trajectory]), due=9.0)
    request.sent, request.done, request.ok = 9.1, 14.5, True
    encode = _span("api.encode", 10.0, 12.0, key=trajectory, result=vectors)
    model = _span("core.model_encode", 10.5, 11.5, encode)
    query = _span("api.query", 13.0, 14.0, key=vectors)
    scan = _span("index.top_k", 13.2, 13.9, query, rows=1)
    other = _span("api.encode", 12.0, 13.0, key=object())  # a batch-mate's encode
    result = tracing.account([encode, model, query, scan, other], [request])
    assert result.late == [pytest.approx(0.1)]
    assert result.queue_wait == [pytest.approx(0.9)]
    assert result.service == [pytest.approx(3.0)]
    assert result.untraced == [pytest.approx(1.5)]
    assert sum(result.self_by_layer.values()) == pytest.approx(3.0)
    assert result.self_by_layer["index.top_k"] == pytest.approx(0.7)
    assert result.self_by_layer["api.query"] == pytest.approx(0.3)


def test_tracer_wrappers_record_only_while_active_and_uninstall_cleanly():
    from repro.api import Engine

    original = Engine.__dict__["encode"], Engine.__dict__["restore"]
    tracer = tracing.Tracer().install()
    try:
        engine = Engine(lambda batch: np.ones((len(batch), 3), dtype=np.float32))
        engine.encode([[1, 2], [3]])  # anything with a length stands in for a trajectory
        assert tracer.spans == []
        tracer.active = True
        engine.encode([[4, 5, 6]])
        names = [s.name for s in tracer.spans]
        assert names == ["api.encode"] and tracer.spans[0].rows == 1
    finally:
        tracer.uninstall()
    assert (Engine.__dict__["encode"], Engine.__dict__["restore"]) == original


# --------------------------------------------------------------------------- #
# Percentiles and sample counts
# --------------------------------------------------------------------------- #
def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    p99 = stats.quantile(values, 0.99)
    assert (p99.value, p99.q, p99.n) == (990.0, 0.99, 1000)
    assert sum(v > p99.value for v in values) == 10
    capped = stats.quantile(values[:500], 0.99)
    assert capped.q == pytest.approx(0.98)
    assert sum(v > capped.value for v in values[:500]) == 10
    assert stats.quantile(range(20), 0.5).q == 0.5
    assert stats.quantile(range(10), 0.5) is None


def test_failures_count_as_infinitely_late():
    samples = [1.0] * 980 + [float("inf")] * 20
    assert stats.quantile(samples, 0.99).value == float("inf")
    assert stats.quantile(samples, 0.5).value == 1.0


# --------------------------------------------------------------------------- #
# Open-loop clock
# --------------------------------------------------------------------------- #
class _StubServer:
    """Answers each request on a worker thread after ``service`` seconds.

    ``stall_at`` makes the worker stall before answering that request;
    ``block_at`` makes ``submit`` itself block the caller.
    """

    def __init__(self, service=0.001, stall_at=None, block_at=None, stall=0.1, answer=None):
        self.service, self.stall_at, self.block_at, self.stall = service, stall_at, block_at, stall
        self.answer = answer or (lambda payload: payload)
        self.jobs: list[tuple[int, object, Future]] = []
        self.cond = threading.Condition()
        self.count = 0
        self.closed = False
        self.worker = threading.Thread(target=self._serve, daemon=True)
        self.worker.start()

    def submit(self, payload) -> Future:
        future: Future = Future()
        with self.cond:
            number = self.count
            self.count += 1
        if number == self.block_at:
            time.sleep(self.stall)
        with self.cond:
            self.jobs.append((number, payload, future))
            self.cond.notify()
        return future

    def _serve(self):
        while True:
            with self.cond:
                while not self.jobs and not self.closed:
                    self.cond.wait()
                if self.closed and not self.jobs:
                    return
                number, payload, future = self.jobs.pop(0)
            time.sleep(self.stall if number == self.stall_at else self.service)
            future.set_result(self.answer(payload))

    def close(self):
        with self.cond:
            self.closed = True
            self.cond.notify()
        self.worker.join(5)


@pytest.mark.parametrize("where", ["server", "sender"])
def test_a_stall_makes_later_requests_late(where):
    stall = 0.15
    server = _StubServer(stall=stall, **({"stall_at": 2} if where == "server" else {"block_at": 2}))
    offsets = np.arange(10) * 0.01
    try:
        requests, _ = loadgen.open_loop(server.submit, list(range(10)), offsets)
        loadgen.wait_all(requests, timeout=5)
    finally:
        server.close()
    assert all(r.ok for r in requests)
    # Request 3 was due 10 ms after request 2 began its 150 ms stall: timed
    # from its due time it waited out the rest of the stall.
    assert requests[3].latency >= stall - 0.01 - 0.005
    assert requests[0].latency < stall / 2
    if where == "sender":
        # The generator itself was held up: the lateness is recorded.
        assert requests[3].late >= stall - 0.01 - 0.005
    else:
        assert requests[3].late < stall / 2


def test_refused_and_unfinished_requests_fail():
    def refuse(payload):
        raise RuntimeError("closed")

    requests, _ = loadgen.open_loop(refuse, [1, 2], np.zeros(2))
    assert [r.ok for r in requests] == [False, False]
    assert all(r.latency == float("inf") for r in requests)
    pending = loadgen.Request(index=0, payload=None, future=Future())
    loadgen.wait_all([pending], timeout=0.01)
    assert not pending.ok and pending.latency == float("inf")


def test_closed_loop_keeps_the_window_and_counts_completions():
    server = _StubServer(service=0.002)
    inflight, peak, lock = [0], [0], threading.Lock()

    def submit(payload):
        with lock:
            inflight[0] += 1
            peak[0] = max(peak[0], inflight[0])
        future = server.submit(payload)

        def release(_):
            with lock:
                inflight[0] -= 1

        future.add_done_callback(release)
        return future

    try:
        requests, start = loadgen.closed_loop(submit, iter(range(10**6)), window=4, duration=0.2)
        loadgen.wait_all(requests, timeout=5)
    finally:
        server.close()
    assert peak[0] <= 4
    assert 0 < loadgen.completed_by(requests, start + 0.2) <= len(requests)


def test_poisson_schedule_fixes_the_count_and_depends_only_on_the_seed():
    a = loadgen.poisson_schedule(100.0, 2.0, np.random.default_rng(5))
    b = loadgen.poisson_schedule(100.0, 2.0, np.random.default_rng(5))
    assert len(a) == 200 and np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0) and a[0] >= 0 and a[-1] <= 2.0


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def _response(row: int) -> QueryResponse:
    ids = np.array([[row, row + 1]], dtype=np.int64)
    distances = np.array([[0.5, 0.75]], dtype=np.float32)
    return QueryResponse(ids=ids, distances=distances, trajectory_ids=ids)


def _serve_and_check(corrupt_at=None):
    def answer(payload):
        response = _response(payload)
        if payload == corrupt_at:
            distances = response.distances.copy()
            distances.view(np.uint32)[0, 0] ^= 1  # one ulp: still "close", not equal
            response = QueryResponse(response.ids, distances, response.trajectory_ids)
        return response

    server = _StubServer(service=0.0, answer=answer)
    try:
        requests, _ = loadgen.open_loop(server.submit, list(range(20)), np.zeros(20))
        loadgen.wait_all(requests, timeout=5)
    finally:
        server.close()
    return checks.check_against_reference(requests, reference=_response, key=lambda p: p)


def test_output_check_passes_identical_responses():
    assert _serve_and_check() == []


def test_a_corrupted_response_fails_the_run(monkeypatch, capsys):
    problems = _serve_and_check(corrupt_at=7)
    assert len(problems) == 1 and problems[0].startswith("query 7")

    def fake_run(*args, **kwargs):
        return {"problems": problems, "attempted": 20, "failed": 0, "metrics": {"x": (1.0, "ms")}}

    monkeypatch.setattr(run, "run", fake_run)
    monkeypatch.setattr(run.tempfile, "tempdir", run.tempfile.tempdir)
    code = run.main(["--workload", "traj-unique", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_read_back_check_flags_a_replica_without_the_wave():
    class Primary:
        def encode(self, trajectories):
            return np.ones((len(trajectories), 4), dtype=np.float32)

    def read_back(row, distance):
        ids = np.array([[row, 0]], dtype=np.int64)
        distances = np.array([[distance, 1.0]], dtype=np.float32)
        response = QueryResponse(ids=ids, distances=distances, trajectory_ids=ids)
        return loadgen.Request(
            index=row, payload=QueryRequest(queries=[object()]), ok=True, response=response
        )

    found = read_back(7, 0.0)
    stale = read_back(3, 0.0)      # an older generation: another row is nearest
    far = read_back(9, 0.5)        # the right row, but not the same vector
    assert checks.check_read_back(Primary(), [found], [7]) == []
    assert len(checks.check_read_back(Primary(), [found, stale, far], [7, 5, 9])) == 2


def test_distance_zero_tolerance_covers_float32_self_distance():
    rng = np.random.default_rng(0)
    vectors = (rng.standard_normal((256, 48)) * 3).astype(np.float32)
    norms = (vectors * vectors).sum(axis=1)
    squared = norms[:, None] + norms[None, :] - 2.0 * (vectors @ vectors.T)
    self_distance = np.sqrt(np.maximum(np.diag(squared), 0.0))
    bound = [checks.distance_zero_tolerance(float(np.linalg.norm(v)), 48) for v in vectors]
    assert np.all(self_distance <= bound)


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with what the harness reports
# --------------------------------------------------------------------------- #
def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = set(tracing.layer_metrics([])[0]) | set(run.REQUEST_LAYER_METRICS)
    assert set(per_layer) == reported
    assert all(per_layer[name] == run._unit(name) for name in per_layer)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        name: (unit, run.END_TO_END_BETTER.get(name, "lower"))
        for name, unit in run.END_TO_END_UNITS.items()
    }
