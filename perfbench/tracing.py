"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces a public function by a timing wrapper in the
namespace its caller looks it up in (a module global such as
``repro.core.boruvka_emst.reduce_labels``, or a class attribute such as
``TieredCache.put``) and puts the original object back on
:meth:`Tracer.restore`.  Each call records a span: name, start, end, the
enclosing span and a request id.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from common import Metric

#: The library layers: ``(module path, attribute, span name)``.  Each
#: attribute is the name the calling module looks up at call time.
LIBRARY_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.emst", "build_bvh", "bvh.build"),
    ("repro.bvh.plan", "build_query_plan", "bvh.plan"),
    ("repro.core.outgoing", "batched_nearest", "bvh.nearest"),
    ("repro.core.emst", "batched_knn", "bvh.knn"),
    ("repro.core.boruvka_emst", "reduce_labels", "core.labels"),
    ("repro.core.boruvka_emst", "compute_upper_bounds", "core.bounds"),
    ("repro.core.boruvka_emst", "find_components_outgoing_edges",
     "core.outgoing"),
    ("repro.core.boruvka_emst", "merge_components", "core.merge"),
    ("repro.hdbscan.hdbscan", "single_linkage_tree", "hdbscan.linkage"),
    ("repro.hdbscan.hdbscan", "condense_tree", "hdbscan.condense"),
    ("repro.hdbscan.hdbscan", "extract_clusters", "hdbscan.extract"),
)

#: Span-name prefixes of the layers that run inside one solve.
SOLVE_LAYERS = ("bvh", "core", "hdbscan")
#: Work counters of one traversal phase in a result's ``counters``.
COUNTER_FIELDS = ("distance_evals", "nodes_visited", "lane_steps")

#: The serving layers, on top of :data:`LIBRARY_TARGETS`.  ``None`` as
#: the span name means "ask :func:`_tier_name`".
SERVER_TARGETS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.api.contract:WireAPI", "_decode", "api.parse"),
    ("repro.service.jobs:JobSpec", "from_dict", "api.decode"),
    ("repro.api.contract", "json_response", "api.encode"),
    ("repro.api.contract:WireAPI", "_encode", "api.encode_body"),
    ("repro.service.engine", "fingerprint_array", "store.fingerprint"),
    ("repro.store.tiered:TieredCache", "get_with_source", None),
    ("repro.store.tiered:TieredCache", "put", None),
    ("repro.store.disk:DiskStore", "put", "store.disk_put"),
    ("repro.service.engine", "execute_spec", "service.execute"),
)


@dataclass(frozen=True)
class Span:
    """One timed call.  ``parent`` is the enclosing span's id or None."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.request]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        return cls(*row)


def _tier_name(method: str) -> Callable[..., str]:
    prefix = {"get_with_source": "store.probe", "put": "store.put"}[method]

    def name(cache: Any, *args: Any, **kwargs: Any) -> str:
        return f"{prefix}.{cache.tier}"
    return name


def resolve(path: str) -> Any:
    """``"pkg.mod"`` -> the module; ``"pkg.mod:Class"`` -> the class."""
    import importlib
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        # (enclosing span id, request id) of the running call.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None))
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner: Any, attr: str,
             name: Union[str, Callable[..., str]]) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``name`` is the span name, or a callable given the call's
        arguments that returns it.  Class-level ``classmethod`` and
        ``staticmethod`` objects are unwrapped and rewrapped so the
        binding still works; coroutine functions get an async wrapper
        that times until the coroutine finishes.
        """
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped: Any = type(original)(
                self._timed(original.__func__, name))
        else:
            wrapped = self._timed(original, name)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self, targets: Iterable[Tuple[str, str, Optional[str]]]
                ) -> "Tracer":
        for path, attr, name in targets:
            self.wrap(resolve(path), attr,
                      name if name is not None else _tier_name(attr))
        return self

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def _span(self, label: str):
        sid = next(self._ids)
        parent, request = self._current.get()
        request = sid if request is None else request
        token = self._current.set((sid, request))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._current.reset(token)
            self.spans.append(Span(sid, label, start, end, parent, request))

    def _timed(self, fn: Callable, name: Union[str, Callable[..., str]]
               ) -> Callable:
        def label(args: tuple, kwargs: dict) -> str:
            return name(*args, **kwargs) if callable(name) else name

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with self._span(label(args, kwargs)):
                    return await fn(*args, **kwargs)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self._span(label(args, kwargs)):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def operation(self, request: int):
        """Tag the spans recorded inside the block with ``request``."""
        token = self._current.set((None, request))
        try:
            yield
        finally:
            self._current.reset(token)


# ------------------------------------------------------------- summaries

@dataclass
class LayerTotal:
    """Summed time of every span of one name."""

    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


def layer_totals(spans: Iterable[Span]) -> Dict[str, LayerTotal]:
    """Per span name: inclusive time, self time and call count.

    Self time is a span's duration minus its direct children's.
    """
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: Dict[str, LayerTotal] = {}
    for s in spans:
        t = out.setdefault(s.name, LayerTotal())
        t.total += s.duration
        t.self_time += s.duration - child_time.get(s.sid, 0.0)
        t.calls += 1
    return out


def root_time(spans: Iterable[Span]) -> float:
    """Time inside outermost wrapped calls: what the layers explain."""
    return sum(s.duration for s in spans if s.parent is None)


def round_times(spans: Iterable[Span], rounds: int,
                marker: str = "core.labels",
                target: str = "bvh.nearest") -> List[float]:
    """Summed ``target`` time per Borůvka round, over every request.

    A round starts at its ``marker`` call (``reduce_labels`` opens each
    round), so a ``target`` span belongs to the last round started
    before it within the same request.  Rounds past ``rounds`` are
    dropped.
    """
    by_request: Dict[int, List[Span]] = {}
    for s in spans:
        by_request.setdefault(s.request, []).append(s)
    out = [0.0] * rounds
    for group in by_request.values():
        starts = sorted(s.start for s in group if s.name == marker)
        for s in group:
            if s.name == target:
                r = sum(1 for t in starts if t <= s.start) - 1
                if 0 <= r < rounds:
                    out[r] += s.duration
    return out


def solve_figures(spans: List[Span], solves: int,
                  results: List[Dict[str, Any]], n_points: int,
                  rounds: int) -> Dict[str, Metric]:
    """Per-solve figures of the solve layers.

    Times are span totals of the :data:`SOLVE_LAYERS` over ``solves``.
    Work counts are means over ``results``: EMST results as
    ``repro.service.jobs.emst_result_to_dict`` gives them, whose
    ``counters`` (per phase) and ``rounds`` are exact.
    """
    totals = layer_totals(spans)
    per = max(1, solves)
    out: Dict[str, Metric] = {}
    for name, t in totals.items():
        if name.split(".")[0] in SOLVE_LAYERS:
            out[f"{name}_s"] = Metric(t.total / per, "s", t.calls)
    if "bvh.nearest" in totals and "core.outgoing" in totals:
        out["core.outgoing_glue_s"] = Metric(
            (totals["core.outgoing"].total - totals["bvh.nearest"].total)
            / per, "s", totals["core.outgoing"].calls)
    n = len(results)

    def mean(values: Iterable[float]) -> float:
        return sum(values) / n if n else 0.0

    for r, nearest in enumerate(round_times(spans, rounds)):
        out[f"core.r{r}.nearest_s"] = Metric(nearest / per, "s", solves)
        out[f"core.r{r}.distance_evals"] = Metric(mean(
            res["rounds"][r]["distance_evals"]
            if r < len(res["rounds"]) else 0 for res in results),
            "count", n)
    out["core.rounds"] = Metric(
        mean(res["n_iterations"] for res in results), "count", n)
    for phase in ("core", "mst"):
        for field in COUNTER_FIELDS:
            out[f"bvh.{phase}.{field}"] = Metric(mean(
                res["counters"].get(phase, {}).get(field, 0)
                for res in results), "count", n)
    evals = out["bvh.mst.distance_evals"].value
    out["bvh.edge_yield"] = Metric((n_points - 1) / evals if evals else 0.0,
                                   "edges/eval", n)
    return out


def explained(spans: List[Span], wall: float, operations: int
              ) -> Dict[str, Metric]:
    """What the wrapped layers explain of ``wall`` seconds spent on
    ``operations`` operations: each layer's self time per operation, the
    share of ``wall`` inside outermost wrapped calls, and the unexplained
    rest per operation."""
    per = max(1, operations)
    out = {f"self.{name}_ms": Metric(t.self_time / per * 1e3, "ms", t.calls)
           for name, t in layer_totals(spans).items()}
    covered = root_time(spans)
    out["trace.coverage_frac"] = Metric(covered / wall if wall else 0.0,
                                        "frac", operations)
    out["trace.residual_ms"] = Metric((wall - covered) / per * 1e3, "ms",
                                      operations)
    return out
