"""The traced run: spans recorded around public layer functions, from outside.

:meth:`Tracer.install` replaces a fixed list of public functions with
wrappers that record a :class:`Span` (name, start, end, parent span and the
object that identifies the request) in memory; :meth:`Tracer.uninstall`
puts the originals back.  Only the traced run imports this module.  Spans are
recorded only while :attr:`Tracer.active` is set; otherwise a wrapper calls
straight through.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Per request, the self times of its spans add up to the time
its spans cover (its *service* time); what remains of its latency is split
into generator lateness, queue wait (submit to its first span) and time no
span covers (reported as ``trace.untraced_ms``).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

from perfbench import stats


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    key: object = None       # the object that names the request (see attribute_requests)
    rows: int = 0
    nbytes: int = 0
    start: float = 0.0
    end: float = 0.0
    result: object = None    # kept for api.encode: query spans find their request by it
    train_calls: int = 0     # Module.train calls made while this was the innermost span

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a))
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the time its (possibly overlapping) children cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


def _items(arg):
    """The trajectories of an encode/ingest argument: a list or a request object."""
    return getattr(arg, "trajectories", arg)


def _len(arg) -> int:
    try:
        return len(arg)
    except TypeError:
        return 0


def _nothing(args):
    return None, 0, 0


def _encode(args):
    items = _items(args[1])
    return (items[0] if _len(items) else None), _len(items), 0


def _query(args):
    return getattr(args[1], "queries", args[1]), 0, 0


def _query_many(args):
    return None, sum(_len(getattr(r, "queries", r)) for r in args[1]), 0


def _trajectories(args):
    return None, _len(_items(args[1])), 0


def _matrix_rows(args):
    return None, int(args[1].shape[0]), 0


def _store(args):
    store = args[0]
    return None, len(store), store.vectors.nbytes + store.ids.nbytes


def _targets():
    """(span name, owner class, attribute, describe(args) -> (key, rows, nbytes))."""
    from repro.api import Engine, create_backend
    from repro.core import TPEGAT, BatchBuilder, STARTModel
    from repro.nn import TransformerEncoder
    from repro.serving.store import EmbeddingStore

    sharded = type(create_backend("sharded"))
    return [
        ("server.publish", Engine, "snapshot", _nothing),
        ("server.replica_refresh", Engine, "restore", _nothing),
        ("api.encode", Engine, "encode", _encode),
        ("api.query", Engine, "query", _query),
        ("api.query_many", Engine, "query_many", _query_many),
        ("api.ingest", Engine, "ingest", _trajectories),
        ("core.model_encode", STARTModel, "encode", _trajectories),
        ("core.batch_build", BatchBuilder, "build", _trajectories),
        ("core.forward", STARTModel, "forward", _nothing),
        ("core.tpe_gat", TPEGAT, "forward", _nothing),
        ("nn.tat_enc", TransformerEncoder, "forward", _nothing),
        ("index.top_k", sharded, "top_k", _matrix_rows),
        ("index.add", sharded, "add", _matrix_rows),
        ("serving.store_save", EmbeddingStore, "save", _store),
        ("serving.store_load", EmbeddingStore, "load", _nothing),
    ]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function, describe):
        tracer = self
        keep_result = name == "api.encode"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            stack = tracer._stack()
            key, rows, nbytes = describe(args)
            span = Span(name, stack[-1] if stack else None, key, rows, nbytes)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep_result:
                span.result = result
            return result

        return traced

    def _count_train(self, function):
        tracer = self

        @functools.wraps(function)
        def counted(*args, **kwargs):
            if tracer.active:
                stack = tracer._stack()
                if stack:
                    stack[-1].train_calls += 1
            return function(*args, **kwargs)

        return counted

    def install(self) -> "Tracer":
        from repro.nn import Module

        for name, owner, attribute, describe in _targets():
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, describe))
            else:
                wrapped = self.wrap(name, original, describe)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        original = Module.__dict__["train"]
        self._originals.append((Module, "train", original))
        Module.train = self._count_train(original)
        return self

    def uninstall(self) -> None:
        self.active = False
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def attribute_requests(spans: list[Span], requests) -> dict[int, int]:
    """Map ``id(span)`` to the position in ``requests`` of the request it served.

    A request's trajectory objects name it in ``api.encode`` spans; the vectors
    that encode returns name it in the ``api.query`` span that scans them.  A
    span nobody names inherits its parent's request.
    """
    by_object = {}
    for position, request in enumerate(requests):
        for trajectory in request.payload.queries:
            by_object[id(trajectory)] = position
    for span in spans:
        if span.name == "api.encode" and id(span.key) in by_object and span.result is not None:
            by_object[id(span.result)] = by_object[id(span.key)]
    owner: dict[int, int] = {}

    def resolve(span: Span) -> int | None:
        if id(span) in owner:
            return owner[id(span)]
        found = None
        if span.name in ("api.encode", "api.query") and span.key is not None:
            found = by_object.get(id(span.key))
        if found is None and span.parent is not None:
            found = resolve(span.parent)
        if found is not None:
            owner[id(span)] = found
        return found

    for span in spans:
        resolve(span)
    return owner


@dataclass
class Accounting:
    """Where each open-loop request's latency went (seconds, per request)."""

    latency: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    queue_wait: list[float] = field(default_factory=list)
    service: list[float] = field(default_factory=list)
    untraced: list[float] = field(default_factory=list)
    self_by_layer: dict[str, float] = field(default_factory=dict)


def account(spans: list[Span], requests) -> Accounting:
    """Split each answered request's latency into late + queue + service + untraced."""
    owner = attribute_requests(spans, requests)
    children = children_of(spans)
    per_request: dict[int, list[Span]] = {}
    for span in spans:
        if id(span) in owner:
            per_request.setdefault(owner[id(span)], []).append(span)
    result = Accounting()
    for position, request in enumerate(requests):
        mine = per_request.get(position)
        if not request.ok or not mine:
            continue
        roots = [s for s in mine if s.parent is None or owner.get(id(s.parent)) != position]
        first = min(s.start for s in roots)
        service = covered([(s.start, s.end) for s in roots], first, max(s.end for s in roots))
        queue = first - request.sent
        result.latency.append(request.latency)
        result.late.append(request.late)
        result.queue_wait.append(queue)
        result.service.append(service)
        result.untraced.append(request.latency - request.late - queue - service)
        for span in mine:
            result.self_by_layer[span.name] = result.self_by_layer.get(span.name, 0.0) + self_time(
                span, children.get(id(span), [])
            )
    answered = max(1, len(result.latency))
    result.self_by_layer = {k: v / answered for k, v in sorted(result.self_by_layer.items())}
    return result


def _ancestor_named(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, dict]]:
    """The per-layer metrics over ``spans``: (name -> value, name -> sample detail)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    values: dict[str, float] = {}
    detail: dict[str, dict] = {}

    def timing(metric: str, chosen: list[Span], qs=(0.5, 0.99)) -> None:
        durations = [s.duration * 1e3 for s in chosen]
        for q in qs:
            name = f"{metric}.p{int(round(q * 100))}"
            result = stats.quantile(durations, q)
            if result is None:  # no call, or too few: reported as 0 with its count
                values[name], detail[name] = 0.0, {"value": None, "n": len(durations)}
            else:
                values[name], detail[name] = result.value, result.as_dict()

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    query_many = named("api.query_many")
    values["server.batch_occupancy.mean"] = (
        sum(s.rows for s in query_many) / len(query_many) if query_many else 0.0
    )
    timing("server.publish_ms", named("server.publish"))
    values["server.publishes"] = float(len(named("server.publish")))
    timing("server.replica_refresh_ms", named("server.replica_refresh"))
    values["server.replica_refreshes"] = float(len(named("server.replica_refresh")))
    encodes = named("api.encode")
    timing("api.encode_ms", encodes)
    values["api.encode_calls"] = float(len(encodes))
    values["api.encode_rows_per_call"] = stats.mean(s.rows for s in encodes) or 0.0
    timing("api.query_many_ms", query_many)
    scanned = sum(s.rows for s in named("index.top_k") if _ancestor_named(s, "api.query_many"))
    looked_up = sum(s.rows for s in query_many)
    values["api.cache_hit_frac"] = 1.0 - scanned / looked_up if looked_up else 0.0
    timing("api.ingest_ms", named("api.ingest"), qs=(0.5,))
    model_encodes = named("core.model_encode")
    timing("core.model_encode_ms", model_encodes, qs=(0.5,))
    timing("core.batch_build_ms", named("core.batch_build"), qs=(0.5,))
    timing("core.forward_ms", named("core.forward"), qs=(0.5,))
    values["core.tpe_gat_calls"] = float(len(named("core.tpe_gat")))
    children = children_of(spans)

    def subtree_train_calls(span: Span) -> int:
        return span.train_calls + sum(subtree_train_calls(c) for c in children.get(id(span), []))

    values["core.train_calls_per_encode"] = (
        sum(subtree_train_calls(s) for s in model_encodes) / len(model_encodes)
        if model_encodes
        else 0.0
    )
    timing("nn.tat_enc_ms", named("nn.tat_enc"), qs=(0.5,))
    top_k = named("index.top_k")
    timing("index.top_k_ms", top_k)
    values["index.top_k_calls"] = float(len(top_k))
    values["index.top_k_rows_per_call"] = stats.mean(s.rows for s in top_k) or 0.0
    ingest_adds = [s for s in named("index.add") if _ancestor_named(s, "api.ingest")]
    timing("index.add_ms", ingest_adds, qs=(0.5,))
    timing("serving.store_save_ms", named("serving.store_save"), qs=(0.5,))
    timing("serving.store_load_ms", named("serving.store_load"), qs=(0.5,))
    snapshot_bytes = [
        sum(c.nbytes for c in children.get(id(s), []) if c.name == "serving.store_save")
        for s in named("server.publish")
    ]
    values["serving.snapshot_mb"] = (stats.mean(snapshot_bytes) or 0.0) / 2**20
    return values, detail
