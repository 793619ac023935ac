"""Compiled traversal engine: the C kernels of ``_kernels.c`` over ``ctypes``.

The ``nearest`` and ``knn`` kernels run one plain C loop per query lane
over a private ``(node, bound)`` stack — the per-thread traversal of the
paper's GPU kernels, with none of the NumPy engines' per-iteration
interpreter cost.  Answers are byte-identical to the ``reference`` and
``wavefront`` engines: keyed nearest queries minimize the total order
``(distance, pair key)``, k-NN distance columns are order-free, and the
kernels compute every distance bit for bit as NumPy does (see the float
contract in ``_kernels.c``).

**Build and cache.**  The library is compiled on first use, never at
import, with the first of ``gcc``/``cc`` on ``PATH`` and :data:`FLAGS`.
The output is written to a temporary file and moved into place with
``os.replace``, so concurrent builders (threads or processes) never load
a partial library.  Its file name is the SHA-256 of the source, the flags
and the platform, under ``~/.cache/repro``; a cached library that fails
to load (truncated, stale) is rebuilt once.  When no compiler is found or
building or loading fails, :func:`available` logs one warning and returns
``False``, and :mod:`repro.bvh.traversal` falls back to ``wavefront``.

**Counters** (:class:`~repro.kokkos.counters.CostCounters`):
``nodes_visited`` and ``lane_steps`` are stack pops (summed over lanes),
``stack_ops`` pops plus pushes, ``box_distance_evals`` one root bound
per lane plus two per expanded node, ``leaf_visits`` ``(lane, leaf)``
visits, ``distance_evals`` admissible point candidates, and
``warp_steps`` the sum over 32-lane warps of the largest lane pop count
in the warp — the SIMT cost of lanes that walk in lock step.

Self-queries (``self_queries=True`` upstream) descend from the root like
any other batch: no :class:`~repro.bvh.plan.QueryPlan` is built.  The
C code keeps no global state, and ``ctypes`` releases the GIL for the
call, so concurrent traversals on worker threads run in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.bvh.bvh import BVH
from repro.bvh.query import (
    KnnResult,
    NearestResult,
    validate_constraints,
    validate_query_points,
)
from repro.errors import InvalidInputError, ReproError
from repro.kokkos.counters import CostCounters

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernels.c")
#: ``-ffp-contract=off``: a fused multiply-add rounds differently, and a
#: 1-ULP drift flips inclusive ``<=`` pruning at an initial radius.
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
#: Error codes of the C entry points (0 is success).
_STACK_OVERFLOW, _BAD_TREE = 1, 2
#: Counter slots of the C ``counters`` array.
_POPS, _PUSHES, _BOX_EVALS, _DISTANCE_EVALS, _LEAF_VISITS, _WARP_STEPS = \
    range(6)

_lock = threading.Lock()
#: The loaded library, ``False`` after a failed load, ``None`` before any.
_lib = None


class _Tree(ctypes.Structure):
    _fields_ = [("n", ctypes.c_int64), ("dim", ctypes.c_int64),
                ("leaf_base", ctypes.c_int64),
                ("points", ctypes.c_void_p), ("lo", ctypes.c_void_p),
                ("hi", ctypes.c_void_p), ("left", ctypes.c_void_p),
                ("right", ctypes.c_void_p), ("leaf_start", ctypes.c_void_p),
                ("leaf_count", ctypes.c_void_p)]


class _Stack(ctypes.Structure):
    _fields_ = [("capacity", ctypes.c_int64), ("node", ctypes.c_void_p),
                ("bound", ctypes.c_void_p)]


def _find_compiler() -> Optional[str]:
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


def library_path() -> Path:
    """Where the library for this source, these flags and platform lives."""
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(" ".join(FLAGS).encode())
    h.update(f"{sys.platform}-{platform.machine()}".encode())
    return _cache_dir() / f"_kernels-{h.hexdigest()[:16]}.so"


def _build(compiler: str, path: Path) -> None:
    """Compile into a temporary file, then atomically move it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp",
                               dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    ptr = ctypes.c_void_p
    lib.repro_nearest.restype = ctypes.c_int
    lib.repro_nearest.argtypes = [
        ctypes.POINTER(_Tree), ctypes.c_int64, ptr,  # tree, batch, queries
        ptr, ptr, ptr, ptr,        # labels: query, node, point; radius
        ptr, ptr, ptr, ptr, ptr,   # ids: query, point; cores; exclude
        ctypes.POINTER(_Stack), ptr, ptr, ptr, ptr]  # stack, outputs
    lib.repro_knn.restype = ctypes.c_int
    lib.repro_knn.argtypes = [
        ctypes.POINTER(_Tree), ctypes.c_int64, ptr, ctypes.c_int64,
        ptr, ctypes.POINTER(_Stack), ptr, ptr, ptr]
    return lib


def _load() -> ctypes.CDLL:
    path = library_path()
    if path.exists():
        try:
            return _open(path)
        except OSError as exc:  # e.g. a file truncated by a crash
            log.info("rebuilding cached kernel library %s: %s", path, exc)
    compiler = _find_compiler()
    if compiler is None:
        raise OSError("no C compiler (gcc or cc) on PATH")
    _build(compiler, path)
    return _open(path)


def available() -> bool:
    """Whether the compiled kernels can run, loading them on first call.

    Thread safe; a failure is logged once as a warning and remembered for
    the life of the process.
    """
    global _lib
    if _lib is None:
        with _lock:
            if _lib is None:
                try:
                    _lib = _load()
                # RuntimeError: Path.home() when no home directory exists.
                except (OSError, RuntimeError,
                        subprocess.SubprocessError) as exc:
                    log.warning("compiled traversal kernels unavailable, "
                                "using the wavefront engine: %s", exc)
                    _lib = False
    return _lib is not False


# ------------------------------------------------------------------ calls

def _addr(a: Optional[np.ndarray]) -> Optional[int]:
    return None if a is None else a.ctypes.data


def _queries(bvh: BVH, query_points: np.ndarray,
             self_queries: bool) -> np.ndarray:
    query_points = validate_query_points(bvh, query_points)
    if self_queries and query_points.shape[0] != bvh.n:
        raise InvalidInputError(
            "self_queries requires one lane per indexed point")
    return np.ascontiguousarray(query_points)


def _tree_args(bvh: BVH):
    """The flat tree view, shape-checked, plus the arrays it points into."""
    m = bvh.n_leaves
    arrays = (
        np.ascontiguousarray(bvh.points, dtype=np.float64),
        np.ascontiguousarray(bvh.lo, dtype=np.float64),
        np.ascontiguousarray(bvh.hi, dtype=np.float64),
        np.ascontiguousarray(bvh.left, dtype=np.int64),
        np.ascontiguousarray(bvh.right, dtype=np.int64),
        np.ascontiguousarray(bvh.leaf_start, dtype=np.int64),
        np.ascontiguousarray(bvh.leaf_count, dtype=np.int64),
    )
    points, lo, hi, left, right, start, count = arrays
    shapes = ((lo, (2 * m - 1, bvh.dim)), (hi, (2 * m - 1, bvh.dim)),
              (left, (m - 1,)), (right, (m - 1,)), (count, (m,)))
    for array, shape in shapes:
        if array.shape != shape:
            raise InvalidInputError(
                f"malformed tree: array of shape {array.shape}, "
                f"expected {shape}")
    tree = _Tree(bvh.n, bvh.dim, m - 1, *(a.ctypes.data for a in arrays))
    return tree, arrays


def _stack(bvh: BVH):
    capacity = max(bvh.height + 2, 4)
    node = np.empty(capacity, dtype=np.int64)
    bound = np.empty(capacity, dtype=np.float64)
    return _Stack(capacity, node.ctypes.data, bound.ctypes.data), \
        (node, bound)


def _check(code: int) -> None:
    if code == _STACK_OVERFLOW:
        raise ReproError("traversal stack overflow: the tree is deeper "
                         "than its recorded height")
    if code == _BAD_TREE:
        raise ReproError("malformed tree: child or leaf index out of range")


def _record(counters: Optional[CostCounters], raw: np.ndarray,
            batch: int) -> None:
    if counters is None:
        return
    pops = int(raw[_POPS])
    counters.nodes_visited += pops
    counters.lane_steps += pops
    counters.stack_ops += pops + int(raw[_PUSHES])
    counters.box_distance_evals += int(raw[_BOX_EVALS])
    counters.distance_evals += int(raw[_DISTANCE_EVALS])
    counters.leaf_visits += int(raw[_LEAF_VISITS])
    counters.warp_steps += int(raw[_WARP_STEPS])
    counters.kernel_launches += 1
    counters.max_batch = max(counters.max_batch, batch)


def nearest(
    bvh: BVH,
    query_points: np.ndarray,
    *,
    query_labels: Optional[np.ndarray] = None,
    node_labels: Optional[np.ndarray] = None,
    point_labels: Optional[np.ndarray] = None,
    init_radius_sq: Optional[np.ndarray] = None,
    query_ids: Optional[np.ndarray] = None,
    point_ids: Optional[np.ndarray] = None,
    query_core_sq: Optional[np.ndarray] = None,
    point_core_sq: Optional[np.ndarray] = None,
    exclude_position: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
    self_queries: bool = False,
) -> NearestResult:
    """Constrained nearest neighbor, one C loop per lane.

    Same contract as :func:`repro.bvh.traversal.batched_nearest`;
    ``self_queries`` is only checked (every lane starts at the root).
    The caller checks :func:`available` first.
    """
    query_points = _queries(bvh, query_points, self_queries)
    B = query_points.shape[0]
    c = validate_constraints(
        bvh, B, query_labels=query_labels, node_labels=node_labels,
        point_labels=point_labels, init_radius_sq=init_radius_sq,
        query_ids=query_ids, point_ids=point_ids,
        query_core_sq=query_core_sq, point_core_sq=point_core_sq,
        exclude_position=exclude_position)
    tree, _keep_tree = _tree_args(bvh)
    stack, _keep_stack = _stack(bvh)
    position = np.empty(B, dtype=np.int64)
    distance_sq = np.empty(B, dtype=np.float64)
    key = np.empty(B, dtype=np.uint64)
    raw = np.zeros(6, dtype=np.int64)
    code = _lib.repro_nearest(
        ctypes.byref(tree), B, _addr(query_points),
        _addr(c.query_labels), _addr(c.node_labels), _addr(c.point_labels),
        _addr(c.init_radius_sq), _addr(c.query_ids), _addr(c.point_ids),
        _addr(c.query_core_sq), _addr(c.point_core_sq),
        _addr(c.exclude_position), ctypes.byref(stack),
        _addr(position), _addr(distance_sq), _addr(key), _addr(raw))
    _check(code)
    _record(counters, raw, B)
    return NearestResult(position, distance_sq, key)


def knn(
    bvh: BVH,
    query_points: np.ndarray,
    k: int,
    *,
    exclude_position: Optional[np.ndarray] = None,
    counters: Optional[CostCounters] = None,
    self_queries: bool = False,
) -> KnnResult:
    """k nearest neighbors, one C loop per lane (see :func:`nearest`)."""
    query_points = _queries(bvh, query_points, self_queries)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    B = query_points.shape[0]
    excl = validate_constraints(
        bvh, B, exclude_position=exclude_position).exclude_position
    tree, _keep_tree = _tree_args(bvh)
    stack, _keep_stack = _stack(bvh)
    positions = np.empty((B, k), dtype=np.int64)
    distance_sq = np.empty((B, k), dtype=np.float64)
    raw = np.zeros(6, dtype=np.int64)
    code = _lib.repro_knn(
        ctypes.byref(tree), B, _addr(query_points), int(k), _addr(excl),
        ctypes.byref(stack), _addr(positions), _addr(distance_sq),
        _addr(raw))
    _check(code)
    _record(counters, raw, B)
    return KnnResult(positions, distance_sq)
