"""Load generation: an open-loop phase and a closed-loop phase.

Everything here drives plain callables (``submit(payload) -> Future``), so
the self-tests run it against stub servers in milliseconds.

* :func:`open_loop` sends each request at its scheduled due time from one
  thread and times it from that due time, not from when it was sent: a stall
  in the server (or in the generator) makes every later request late, and the
  lateness is recorded per request.
* :func:`closed_loop` keeps a fixed window of requests in flight and measures
  how many complete inside a fixed duration (capacity).
"""

from __future__ import annotations

import concurrent.futures
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np


@dataclass
class Request:
    """One request: its payload, its schedule and what became of it."""

    index: int
    payload: object
    due: float = 0.0
    sent: float = float("nan")
    done: float = float("nan")
    ok: bool = False
    response: object = None
    error: BaseException | None = None
    future: Future | None = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        """Due time to completion; ``inf`` for a failed or unfinished request."""
        return self.done - self.due if self.ok else float("inf")

    @property
    def late(self) -> float:
        return self.sent - self.due


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on ``rate * duration`` arrivals.

    Given its count, a Poisson process's arrival times are sorted uniform
    draws; fixing the count keeps the offered load identical across seeds.
    """
    count = int(round(rate * duration))
    return np.sort(rng.uniform(0.0, duration, size=count))


def _attach(request: Request, future: Future) -> None:
    request.future = future

    def finished(done: Future) -> None:
        # Runs on the thread that resolved the future: the completion instant.
        # ``done`` is written last; readers take it as "this request settled".
        finished_at = time.perf_counter()
        error = done.exception()
        if error is None:
            request.response = done.result()
            request.ok = True
        else:
            request.error = error
        request.done = finished_at

    future.add_done_callback(finished)


def _send(request: Request, submit) -> None:
    request.sent = time.perf_counter()
    try:
        future = submit(request.payload)
    except Exception as exc:  # refused at the door: counts as failed
        request.done = time.perf_counter()
        request.error = exc
        return
    _attach(request, future)


def open_loop(
    submit: Callable[[object], Future],
    payloads: list,
    offsets: np.ndarray,
) -> tuple[list[Request], float]:
    """Send ``payloads[i]`` at ``start + offsets[i]``; returns (requests, start).

    Requests are timed from their due time.  The function returns once every
    request has been sent; use :func:`wait_all` for the completions.
    """
    start = time.perf_counter()
    requests = []
    for index, (payload, offset) in enumerate(zip(payloads, offsets)):
        request = Request(index=index, payload=payload, due=start + float(offset))
        requests.append(request)
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        _send(request, submit)
    return requests, start


def closed_loop(
    submit: Callable[[object], Future],
    payloads: Iterator,
    *,
    window: int,
    duration: float,
) -> tuple[list[Request], float]:
    """Keep ``window`` requests in flight for ``duration`` seconds.

    Each request is due when it is sent.  Returns (requests, start); the
    throughput is the number completed by ``start + duration`` over
    ``duration`` (see :func:`completed_by`).
    """
    slots = threading.Semaphore(window)
    requests: list[Request] = []
    start = time.perf_counter()
    end = start + duration
    for index, payload in enumerate(payloads):
        remaining = end - time.perf_counter()
        if remaining <= 0 or not slots.acquire(timeout=remaining):
            break
        request = Request(index=index, payload=payload, due=time.perf_counter())
        requests.append(request)
        _send(request, submit)
        if request.future is None:
            slots.release()
        else:
            request.future.add_done_callback(lambda _f: slots.release())
    return requests, start


def wait_all(requests: list[Request], timeout: float) -> None:
    """Wait for every future; one still pending after ``timeout`` stays failed.

    A future's waiters wake before its done callbacks run, so this also waits
    for the callbacks that record each completion.
    """
    deadline = time.monotonic() + timeout
    for request in requests:
        if request.future is None:
            continue
        remaining = max(0.0, deadline - time.monotonic())
        if concurrent.futures.wait([request.future], timeout=remaining).not_done:
            continue
        while math.isnan(request.done) and time.monotonic() < deadline:
            time.sleep(0.0005)


def completed_by(requests: list[Request], instant: float) -> int:
    return sum(1 for r in requests if r.ok and r.done <= instant)
