"""The traffic mixes, their inputs and the shared serving set-up.

Set-up is the same for every workload: build the synthetic-porto corpus,
pre-train a ``small_config()`` START for one epoch, save and reload it (the
path a checkpointed model takes), encode the corpus and grow it to
:data:`CORPUS_ROWS` rows by deterministic jitter replication, load the rows
into the default ``"sharded"`` backend, start ``ServingRuntime`` with the
default ``ServerConfig()`` and warm it up.

Query and write trajectories come from ``build_dataset`` with a seed derived
from the workload seed, so they are disjoint from the corpus; the program
only ever receives these generated inputs.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import Engine, EngineConfig, QueryRequest
from repro.core import small_config
from repro.server import ServerConfig, ServerHooks, ServingRuntime
from repro.trajectory.presets import build_dataset
from repro.utils.seeding import seed_everything

from perfbench import loadgen

PRESET = "synthetic-porto"
CORPUS_ROWS = 20_000
CORPUS_SEED = 23           # jitter replication of the corpus (fixed: not a workload input)
JITTER = 0.05              # replica noise as a share of the embedding std
MODEL_SEED = 2023
K = 10
WAVE_SIZE = 64
QUERY_POOL = 700           # distinct query trajectories per run (> 5x the 128-entry cache)
HOT_SET = 64               # traj-hot draws from this many trajectories (< the cache)
HOT_SKEW = 1.0             # Zipf exponent of the traj-hot draw
INPUT_SEED_OFFSET = 10_000  # keeps input datasets away from the corpus preset seed
CLOSED_WINDOW = 64         # in-flight requests in the saturation phase (2 batches)
WARMUP_REQUESTS = 64
SETUP_REPEATS = 3          # also the number of measurement rounds: one per set-up
PROBE_WAVES = 34           # write probes per round: 102 pooled support a true p90


@dataclass(frozen=True)
class Workload:
    """One traffic mix: an open-loop query rate and a query mix."""

    name: str
    why: str
    query_rate: float        # offered open-loop queries per second
    hot: bool                # skewed draw from HOT_SET trajectories, else a unique stream


#: Offered rates sit near a tenth of each workload's peak_qps on a 2-core host
#: (about 600 and 1300 queries/s).  peak_qps is measured on full batches; the
#: open loop sends lone requests, each paying the linger and a batch of its
#: own, so its knee comes much earlier: at 150 unique queries/s the median
#: latency of a round already jumped between about 5 and 7 ms, while at 75 it
#: stayed near 5 ms.
#: No mix writes during the timed windows: on a shared 2-core host, queries
#: under concurrent write waves spread too widely between runs to hold a 25%
#: bound.  The write path is measured by the write probes that end each round.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "traj-unique",
            "the product path: every query encodes with START and scans the sharded "
            "index; no trajectory repeats within the query-cache horizon",
            query_rate=75.0,
            hot=False,
        ),
        Workload(
            "traj-hot",
            "skewed draws from 64 trajectories: the query cache absorbs the scans while "
            "encode still runs per request, so cache and scan changes separate",
            query_rate=120.0,
            hot=True,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run sends, made from the workload seed."""

    pool: list                 # query trajectories
    waves: list                # write waves (lists of WAVE_SIZE trajectories)
    rng: np.random.Generator   # drives query draws and arrival schedules
    hot_weights: np.ndarray | None
    next_unique: int = 0

    def draw(self, hot: bool) -> int:
        """Pool index of the next query: a skewed hot draw, or the next unique one."""
        if hot:
            return int(self.rng.choice(HOT_SET, p=self.hot_weights))
        draw = self.next_unique
        self.next_unique = (draw + 1) % len(self.pool)
        return draw

    def payload(self, index: int) -> QueryRequest:
        # A fresh object per request: the trace run tells requests apart by
        # identity, and repeated trajectories must not alias each other.
        return QueryRequest(queries=[copy.copy(self.pool[index])], k=K)

    def stream(self, hot: bool):
        """Endless query requests, drawn as they are taken."""
        while True:
            yield self.payload(self.draw(hot))


def make_inputs(workload: Workload, seed: int, max_waves: int) -> Inputs:
    """Query pool and write waves from ``build_dataset(seed=...)``, disjoint from the corpus."""
    needed = QUERY_POOL + max_waves * WAVE_SIZE
    # The preset yields ~700 trajectories per unit of scale; ask for a margin.
    scale = max(1.0, math.ceil(needed / 600))
    dataset = build_dataset(PRESET, scale=scale, seed=INPUT_SEED_OFFSET + seed)
    rng = np.random.default_rng(seed)
    trajectories = [dataset.trajectories[i] for i in rng.permutation(len(dataset))]
    if len(trajectories) < needed:
        raise RuntimeError(f"input dataset has {len(trajectories)} trajectories, need {needed}")
    ids = [t.trajectory_id for t in trajectories]
    if len(set(ids)) != len(ids):
        raise RuntimeError("input trajectories must have distinct trajectory ids")
    pool = trajectories[:QUERY_POOL]
    rest = trajectories[QUERY_POOL:]
    waves = [rest[i * WAVE_SIZE : (i + 1) * WAVE_SIZE] for i in range(max_waves)]
    weights = None
    if workload.hot:
        weights = 1.0 / np.arange(1, HOT_SET + 1) ** HOT_SKEW
        weights /= weights.sum()
    return Inputs(pool=pool, waves=waves, rng=rng, hot_weights=weights)


class PublishLog(ServerHooks):
    """Records (instant, rows) of every published generation."""

    def __init__(self) -> None:
        self.publishes: list[tuple[float, int]] = []

    def on_publish(self, generation: int, rows: int) -> None:
        self.publishes.append((time.perf_counter(), rows))


def grow_corpus(encoded: np.ndarray) -> np.ndarray:
    """Jitter-replicate the encoded corpus to CORPUS_ROWS rows (deterministic)."""
    rng = np.random.default_rng(CORPUS_SEED)
    replicas = -(-CORPUS_ROWS // len(encoded))
    scale = JITTER * float(encoded.std())
    grown = np.concatenate(
        [
            encoded + scale * rng.standard_normal(encoded.shape).astype(np.float32)
            for _ in range(replicas)
        ]
    )[:CORPUS_ROWS]
    return np.ascontiguousarray(grown, dtype=np.float32)


@dataclass
class Served:
    """A started runtime plus what the output checks need."""

    runtime: ServingRuntime
    hooks: PublishLog
    corpus: np.ndarray


def set_up(workdir: Path, inputs: Inputs, workload: Workload, repeat: int) -> Served:
    """One full set-up, from dataset generation to a warmed-up runtime."""
    seed_everything(MODEL_SEED)
    dataset = build_dataset(PRESET)
    trainer = Engine.from_dataset(dataset, EngineConfig(start=small_config()))
    trainer.pretrain(dataset.train_trajectories(), epochs=1)
    checkpoint = trainer.save(workdir / f"model-{repeat}.npz")
    engine = Engine.load(checkpoint, dataset)
    corpus = grow_corpus(engine.encode(dataset.trajectories))
    engine.ingest_vectors(corpus)
    hooks = PublishLog()
    runtime = ServingRuntime(engine, ServerConfig(), hooks=hooks).start()
    warmup = itertools.islice(inputs.stream(workload.hot), WARMUP_REQUESTS)
    requests, _ = loadgen.closed_loop(runtime.submit, warmup, window=8, duration=60.0)
    loadgen.wait_all(requests, timeout=60.0)
    if not all(r.ok for r in requests):
        raise RuntimeError("warm-up queries failed")
    return Served(runtime=runtime, hooks=hooks, corpus=corpus)


def reference_engine(model, corpus: np.ndarray) -> Engine:
    """A single-threaded engine over the same model and rows, queried sequentially."""
    engine = Engine(model, EngineConfig())
    engine.ingest_vectors(corpus)
    return engine


def setup_digest(model, corpus: np.ndarray) -> str:
    """Names a set-up by its weights and rows: equal digests serve equal answers."""
    digest = hashlib.blake2b(corpus.tobytes(), digest_size=16)
    for name, value in model.state_dict().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()
