#!/usr/bin/env python
"""Serving runtime demo: concurrent queries, live ingest, clean SIGTERM exit.

Runs the :class:`repro.server.ServingRuntime` the way a deployment would —
minus the model training, which :mod:`examples/quickstart.py` already walks
through (a deterministic hashing encoder stands in for START so this demo
finishes in seconds):

1. index a 5k-trajectory corpus behind an :class:`repro.api.Engine`;
2. serve 256 concurrent similarity queries from 4 caller threads while an
   ingest wave of 256 new trajectories arrives in the background — the
   runtime batches the queries (one index scan per batch), publishes fresh
   bit-stable replica generations as the ingest lands, and reports
   throughput plus p50/p99 caller latency;
3. checkpoint to disk, then shut down via a real ``SIGTERM`` — the signal
   handler drains every in-flight query and commits a final checkpoint, so
   a restart (shown last) resumes from exactly the pre-kill state;
4. print the :meth:`~repro.server.ServingRuntime.metrics` snapshot the
   runtime collected while serving (QPS, cache hit rate, queue-wait
   percentiles, ingest lag) and dump it as JSON — to
   ``$REPRO_METRICS_SNAPSHOT`` when set, else into the demo workdir.

Run:  python examples/serving_runtime.py
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.api import Engine, EngineConfig, QueryRequest
from repro.obs import format_snapshot
from repro.server import ServerConfig, ServingRuntime
from repro.trajectory import Trajectory
from repro.utils.seeding import seed_everything

DIM = 32
CORPUS = 5_000
QUERIES = 256
CALLERS = 4
WAVE = 256
K = 5


def hashing_encode(batch: list[Trajectory]) -> np.ndarray:
    """Deterministic per-trajectory embedding (the stand-in for START)."""
    out = np.empty((len(batch), DIM), dtype=np.float32)
    for row, trajectory in enumerate(batch):
        out[row] = np.random.default_rng(trajectory.trajectory_id).standard_normal(DIM)
    return out


def make_trajectory(trajectory_id: int) -> Trajectory:
    length = 3 + trajectory_id % 5
    return Trajectory(
        roads=list(range(length)),
        timestamps=[float(60 * i) for i in range(length)],
        trajectory_id=trajectory_id,
    )


def main() -> None:
    seed_everything(7)
    workdir = Path(tempfile.mkdtemp(prefix="repro-serving-demo-"))

    # ------------------------------------------------------------------ #
    # 1. A corpus behind the engine facade.
    # ------------------------------------------------------------------ #
    engine = Engine(hashing_encode, EngineConfig(backend="chunked"))
    engine.ingest([make_trajectory(i) for i in range(CORPUS)])
    print(f"indexed {len(engine)} trajectories ({DIM}-d, chunked backend)")

    config = ServerConfig(
        max_batch=64,
        num_workers=1,
        coalesce="fused",
        ingest_group_size=64,
        publish_every_groups=1,
        checkpoint_dir=workdir / "checkpoint",
    )
    runtime = ServingRuntime(engine, config)
    runtime.start()

    # A real SIGTERM (step 3) must drain in-flight work, checkpoint, and
    # only then let the process die — the handler just calls shutdown().
    def handle_sigterm(signum, frame):
        print("SIGTERM received: draining in-flight queries and checkpointing ...")
        runtime.shutdown()

    signal.signal(signal.SIGTERM, handle_sigterm)

    # ------------------------------------------------------------------ #
    # 2. Concurrent queries + a background ingest wave.
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(11)
    queries = rng.standard_normal((QUERIES, DIM)).astype(np.float32)
    requests = [QueryRequest(queries=queries[i : i + 1], k=K) for i in range(QUERIES)]
    runtime.submit_ingest([make_trajectory(CORPUS + i) for i in range(WAVE)])

    def caller(chunk: list[QueryRequest]) -> list[float]:
        latencies = []
        for request in chunk:
            started = time.perf_counter()
            runtime.query(request, timeout=60)
            latencies.append(time.perf_counter() - started)
        return latencies

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CALLERS) as pool:
        chunks = [requests[i::CALLERS] for i in range(CALLERS)]
        latencies = [l for chunk_lat in pool.map(caller, chunks) for l in chunk_lat]
    wall = time.perf_counter() - started

    runtime.flush_ingest()  # make sure the whole wave has landed
    stats = runtime.stats()
    p50, p99 = (float(np.percentile(latencies, q) * 1e3) for q in (50, 99))
    print(
        f"served {stats['queries']} queries in {wall:.2f}s "
        f"({QUERIES / wall:.0f} qps, {stats['batches']} batches, "
        f"mean occupancy {stats['mean_occupancy']:.1f})"
    )
    print(f"caller latency: p50={p50:.1f}ms p99={p99:.1f}ms")
    print(
        f"ingested wave of {WAVE} -> {len(engine)} rows, "
        f"generation {stats['generation']} published"
    )

    # ------------------------------------------------------------------ #
    # 3. SIGTERM-clean shutdown, then a lossless restart.
    # ------------------------------------------------------------------ #
    os.kill(os.getpid(), signal.SIGTERM)
    print(f"runtime closed: {runtime.closed}")

    # ------------------------------------------------------------------ #
    # 4. What the runtime saw: the metrics snapshot it collected.
    # ------------------------------------------------------------------ #
    snapshot_path = Path(
        os.environ.get("REPRO_METRICS_SNAPSHOT", workdir / "metrics_snapshot.json")
    )
    runtime.dump_metrics(snapshot_path)
    print()
    print(format_snapshot(runtime.metrics()))
    print(f"metrics snapshot written to {snapshot_path}")

    probe = QueryRequest(queries=queries[:1], k=K)
    expected = engine.query(probe)
    restored = ServingRuntime.restore(config.checkpoint_dir, hashing_encode)
    with restored:
        response = restored.query(probe, timeout=60)
    identical = (
        np.array_equal(response.ids, expected.ids)
        and response.distances.tobytes() == expected.distances.tobytes()
    )
    print(f"restarted from checkpoint: {len(restored.primary)} rows, "
          f"probe answer bit-identical: {identical}")


if __name__ == "__main__":
    main()
