"""The pending-query queue that serving workers pull batches from.

Concurrent callers each hold one small :class:`~repro.api.QueryRequest`;
executing them one by one pays one index scan (and one Python dispatch) per
caller.  The :class:`BatchAggregator` holds submitted requests in arrival
order, and a free worker calls :meth:`BatchAggregator.take` to pull the
oldest of them — up to ``max_batch`` — in one batch:

* a request that arrives while a worker is idle is taken at once, so a
  lone query on a quiet server never waits on a timer;
* requests that arrive while every worker is busy queue up, and the next
  worker to finish takes them together — batches grow exactly as fast as
  load outruns the workers.

There is no timer and no flusher thread: blocking is a plain condition
wait that ``submit`` and ``close`` signal, so the queue behaves the same
under the test-kit's :class:`~repro.utils.clock.VirtualClock` as in
production.  The clock only stamps ``enqueued_at`` for queue-wait metrics.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.api.types import QueryRequest
from repro.server.config import ServerClosed
from repro.utils.clock import Clock, SystemClock


@dataclass
class PendingQuery:
    """One queued request plus the future its caller is blocked on."""

    request: QueryRequest
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0


class BatchAggregator:
    """A FIFO of pending requests that workers drain in batches of ``max_batch``.

    ``submit`` appends and wakes one idle worker; ``take`` blocks until
    something is pending and returns the oldest requests; ``close`` refuses
    new submissions, after which ``take`` drains what is left and then
    returns ``None`` — the worker's signal to exit.
    """

    def __init__(self, *, max_batch: int, clock: Clock | None = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self._clock = clock if clock is not None else SystemClock()
        self._ready = threading.Condition()
        self._pending: deque[PendingQuery] = deque()
        self._closed = False
        self._batches = 0
        self._occupancy = 0

    @property
    def pending(self) -> int:
        """Requests submitted but not yet taken by a worker."""
        with self._ready:
            return len(self._pending)

    @property
    def stats(self) -> dict[str, float]:
        with self._ready:
            batches = self._batches
            occupancy = self._occupancy
        return {
            "batches": batches,
            "requests": occupancy,
            "mean_occupancy": occupancy / batches if batches else 0.0,
        }

    def submit(self, request: QueryRequest) -> Future:
        """Queue one request; returns the future its response will land on."""
        entry = PendingQuery(request=request, enqueued_at=self._clock.monotonic())
        with self._ready:
            if self._closed:
                raise ServerClosed("the aggregator is closed to new requests")
            self._pending.append(entry)
            self._ready.notify()
        return entry.future

    def take(self) -> list[PendingQuery] | None:
        """Block until requests are pending; return the oldest ``max_batch``.

        Returns ``None`` once the queue is closed *and* empty.
        """
        with self._ready:
            while not self._pending:
                if self._closed:
                    return None
                self._ready.wait()
            size = min(len(self._pending), self.max_batch)
            batch = [self._pending.popleft() for _ in range(size)]
            self._batches += 1
            self._occupancy += size
        return batch

    def requeue(self, batch: list[PendingQuery]) -> None:
        """Put a taken batch back at the head of the queue, in its order.

        Allowed after :meth:`close`: requests already accepted are owed an
        answer, so a closed queue still hands them to the next ``take``.
        """
        with self._ready:
            self._pending.extendleft(reversed(batch))
            self._ready.notify()

    def close(self) -> None:
        """Refuse new requests and wake every waiting worker."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
