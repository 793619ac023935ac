"""The in-process library workloads: ``emst-uniform2d`` and ``hdbscan-hacc3d``.

Why these two: ``emst-uniform2d`` is the kernel workload (``repro.emst``
alone, where the nearest-neighbour traversal is most of the time), and
``hdbscan-hacc3d`` changes dimension, clustering and metric and is the
only workload where the kNN traversal and ``repro.hdbscan`` do real work.

The parent process computes the expected answer with the ``reference``
traversal engine before anything is timed.  Each measurement then runs in
a fresh interpreter (this file run as a script) that times ``import
repro`` and the first solve (set-up), solves repeatedly for the run
length, and checks every result against the expected digest.  A host
probe (``common.host_probe``) runs before and after every solve; the
result line reports the times scaled by it.
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROUNDS,
    SRC,
    Metric,
    child_env,
    digest,
    host_adjusted,
    host_probe,
    host_scale,
    median,
    require_program,
)

#: Set-up samples per run (fresh interpreters); the median is reported.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class LibWorkload:
    dataset: str
    n: int
    algorithm: str
    k_pts: int = 5
    min_cluster_size: int = 5


WORKLOADS = {
    "emst-uniform2d": LibWorkload("Uniform100M2", 50_000, "emst"),
    "hdbscan-hacc3d": LibWorkload("Hacc37M", 30_000, "hdbscan"),
}


def make_points(w: LibWorkload, seed: int):
    from repro.data import generate
    return generate(w.dataset, w.n, seed)


def solve(w: LibWorkload, points):
    if w.algorithm == "emst":
        from repro import emst
        return emst(points)
    from repro import hdbscan
    return hdbscan(points, k_pts=w.k_pts,
                   min_cluster_size=w.min_cluster_size)


def tree_of(w: LibWorkload, result):
    return result if w.algorithm == "emst" else result.emst


def check(w: LibWorkload, result) -> str:
    """The canonical payload digest, or ``""`` if not a spanning tree."""
    from repro.mst.validate import is_spanning_tree
    from repro.service.jobs import (
        canonical_payload_bytes,
        emst_result_to_dict,
        hdbscan_result_to_dict,
    )
    tree = tree_of(w, result)
    if not is_spanning_tree(w.n, tree.edges[:, 0], tree.edges[:, 1]):
        return ""
    to_dict = emst_result_to_dict if w.algorithm == "emst" \
        else hdbscan_result_to_dict
    return digest(canonical_payload_bytes(to_dict(result)))


def reference_digest(w: LibWorkload, seed: int) -> str:
    """The expected answer, from the ``reference`` traversal engine."""
    from repro.bvh.traversal import traversal_engine
    points = make_points(w, seed)
    with traversal_engine("reference"):
        return check(w, solve(w, points))


# ------------------------------------------------------------ the child

def _solve_loop(w, points, seconds, expected, tracer=None):
    """Solve repeatedly for ``seconds``; a host probe brackets each solve."""
    times: List[float] = []
    probes = [host_probe()]
    failed = 0
    last = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not times:
        with tracer.operation(len(times)) if tracer is not None \
                else contextlib.nullcontext():
            t0 = time.perf_counter()
            last = solve(w, points)
            times.append(time.perf_counter() - t0)
        probes.append(host_probe())
        if check(w, last) != expected:
            failed += 1
    return times, probes, failed, last


def _per_layer(w, tracer, times, result) -> Dict[str, list]:
    """``name -> [value, unit, calls]`` per solve, from one traced loop."""
    from repro.service.jobs import emst_result_to_dict
    from tracing import explained, solve_figures
    figures = solve_figures(tracer.spans, len(times),
                            [emst_result_to_dict(tree_of(w, result))],
                            w.n, ROUNDS)
    figures.update(explained(tracer.spans, sum(times), len(times)))
    return {name: [m.value, m.unit, m.samples]
            for name, m in figures.items()}


def child_main(argv: List[str]) -> int:
    name, seed, seconds, expected, trace = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    w = WORKLOADS[name]
    t0 = time.perf_counter()
    import repro  # noqa: F401 — the import is what is being timed
    import_s = time.perf_counter() - t0
    points = make_points(w, seed)
    t1 = time.perf_counter()
    first = solve(w, points)
    first_s = time.perf_counter() - t1
    failed = int(check(w, first) != expected)
    out: Dict[str, Any] = {"setup_s": import_s + first_s, "times": [],
                           "probes": [], "failed": failed}
    if seconds > 0:
        times, probes, loop_failed, _ = _solve_loop(w, points, seconds,
                                                    expected)
        out["times"], out["probes"] = times, probes
        out["failed"] += loop_failed
        if trace:
            from tracing import LIBRARY_TARGETS, Tracer
            tracer = Tracer().install(LIBRARY_TARGETS)
            try:
                traced, traced_probes, traced_failed, last = _solve_loop(
                    w, points, seconds, expected, tracer)
            finally:
                tracer.restore()
            out["traced_times"] = traced
            out["traced_probes"] = traced_probes
            out["failed"] += traced_failed
            out["layers"] = _per_layer(w, tracer, traced, last)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------- the parent

def _spawn(name: str, seed: int, seconds: float, expected: str,
           trace: bool) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), name, str(seed),
         repr(seconds), expected, "1" if trace else "0"],
        env=child_env(), cwd=str(SRC.parent), capture_output=True,
        text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"solve process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: float, trace: bool
        ) -> Tuple[Dict[str, Metric], Dict[str, int], Dict[str, Metric]]:
    """One run: ``(end-to-end metrics, counts, per-layer metrics)``."""
    require_program()
    w = WORKLOADS[name]
    expected = reference_digest(w, seed)
    if not expected:
        raise RuntimeError("the reference engine's tree does not span")
    children: List[Dict[str, Any]] = []
    if not trace:
        children = [_spawn(name, seed, 0.0, expected, False)
                    for _ in range(SETUP_SAMPLES - 1)]
    main = _spawn(name, seed, seconds, expected, trace)
    children.append(main)
    setup = [c["setup_s"] for c in children]
    failed = sum(c["failed"] for c in children)
    times = main["times"]
    attempted = len(setup) + len(times) + len(main.get("traced_times", []))
    solve_s = median(host_adjusted(times, main["probes"]))
    scale = host_scale(main["probes"])
    e2e = {
        "solve_s": Metric(solve_s, "s", len(times)),
        "repeat_p50_ms": Metric(solve_s * 1e3, "ms", len(times)),
        "setup_s": Metric(median(setup) * scale, "s", len(setup)),
        "peak_rss_mb": Metric(main["peak_rss_mb"], "MB", 1),
        "failed_frac": Metric(failed / attempted, "frac", attempted),
        "solve_measured_s": Metric(median(times), "s", len(times)),
        "setup_measured_s": Metric(median(setup), "s", len(setup)),
        "host_speed": Metric(scale, "x", len(main["probes"])),
    }
    counts = {"attempted": attempted, "succeeded": attempted - failed,
              "failed": failed, "failed.mismatch": failed,
              "failed.shed_429": 0, "failed.timeout": 0, "failed.error": 0}
    layers: Dict[str, Metric] = {}
    if trace:
        layers = {key: Metric(*row) for key, row in main["layers"].items()}
        traced = host_adjusted(main["traced_times"], main["traced_probes"])
        layers["trace.overhead_frac"] = Metric(
            median(traced) / solve_s - 1.0, "frac", len(traced))
    return e2e, counts, layers


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(child_main(sys.argv[1:]))
