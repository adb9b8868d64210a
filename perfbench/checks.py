"""Output checks.  A run whose outputs fail any of these produces no numbers.

* Timed queries: every answered query must equal, bit for bit (ids and
  distances), a sequential ``Engine.query`` on a reference engine built from
  the same model and vectors -- the runtime's ``"aligned"`` contract.
* Write probes: the index must end up holding exactly the corpus rows plus
  every accepted wave, and each ingested trajectory queried back must return
  its own row at distance zero (up to float32 rounding of the distance
  kernel) -- on the primary for every trajectory, and through the runtime's
  published replicas for the one read-back query each probe sends.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.api import QueryRequest


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_against_reference(
    requests,
    reference: Callable[[object], object],
    key: Callable[[object], object],
    expected: dict | None = None,
) -> list[str]:
    """Each answered request must equal ``reference(payload)`` bit for bit.

    ``key`` names the query behind a payload, so repeated queries are
    answered by the reference once; ``expected`` carries those answers
    between calls.
    """
    expected = {} if expected is None else expected
    problems: list[str] = []
    for request in requests:
        if not request.ok:
            continue
        name = key(request.payload)
        if name not in expected:
            expected[name] = reference(request.payload)
        want, got = expected[name], request.response
        if not (_same_bits(got.ids, want.ids) and _same_bits(got.distances, want.distances)):
            problems.append(
                f"query {name}: ids {np.asarray(got.ids).ravel()[:3]}.. distances "
                f"{np.asarray(got.distances).ravel()[:3]}.. != reference "
                f"{np.asarray(want.ids).ravel()[:3]}.. {np.asarray(want.distances).ravel()[:3]}.."
            )
    return problems


def distance_zero_tolerance(norm: float, dim: int) -> float:
    """Largest distance float32 ``|q|^2 + |x|^2 - 2 q.x`` can report for ``x == q``.

    The dot product of ``dim`` terms carries a relative error of about
    ``dim * eps``; the squared distance therefore absorbs up to
    ``(2 dim + 4) eps |q|^2`` and its square root is what is reported.
    """
    return math.sqrt((2 * dim + 4) * float(np.finfo(np.float32).eps)) * norm


def check_ingested(engine, base_rows: int, waves: list) -> list[str]:
    """The index holds the corpus plus every wave; each trajectory finds itself.

    ``waves`` are the accepted waves in submission order; the ingest thread
    applies them in that order, so wave ``w`` owns the rows that follow the
    rows of the waves before it.
    """
    problems: list[str] = []
    total = base_rows + sum(len(wave) for wave in waves)
    if len(engine) != total or engine.backend.next_id != total:
        problems.append(
            f"index holds {len(engine)} rows (next id {engine.backend.next_id}), "
            f"expected {base_rows} corpus rows + {total - base_rows} ingested"
        )
        return problems
    first = base_rows
    for number, wave in enumerate(waves):
        vectors = engine.encode(wave)
        answer = engine.query(QueryRequest(queries=vectors, k=1))
        own = np.arange(first, first + len(wave))
        tolerance = np.array(
            [distance_zero_tolerance(float(np.linalg.norm(v)), vectors.shape[1]) for v in vectors]
        )
        wrong = (answer.ids[:, 0] != own) | (answer.distances[:, 0] > tolerance)
        if wrong.any():
            row = int(np.flatnonzero(wrong)[0])
            problems.append(
                f"wave {number}: trajectory {row} returned row {int(answer.ids[row, 0])} at "
                f"distance {float(answer.distances[row, 0]):.3g}, expected row {own[row]} "
                f"within {tolerance[row]:.3g}"
            )
        first += len(wave)
    return problems


def check_read_back(engine, requests, rows: list[int]) -> list[str]:
    """Each read-back query, sent once its wave was published, finds its own row.

    ``rows[i]`` is the row of ``requests[i]``'s trajectory.  The runtime
    answers from a worker's replica, so this checks that the published
    generation holds the wave.
    """
    problems: list[str] = []
    for request, row in zip(requests, rows):
        if not request.ok:
            continue
        vector = engine.encode(list(request.payload.queries))[0]
        tolerance = distance_zero_tolerance(float(np.linalg.norm(vector)), vector.shape[0])
        got = int(request.response.ids[0, 0])
        distance = float(request.response.distances[0, 0])
        if got != row or distance > tolerance:
            problems.append(
                f"read-back {request.index}: row {got} at distance {distance:.3g}, "
                f"expected row {row} within {tolerance:.3g}"
            )
    return problems
