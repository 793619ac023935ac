"""Traversal-kernel benchmark — compiled vs wavefront vs the reference path.

Measures two things:

* **the kernels themselves** — the round-0 Borůvka self-query
  ``batched_nearest`` (singleton components, component bounds as initial
  radii, tie-break keys) and the core-distance ``batched_knn`` (k=5) on
  one tree, per engine.  The wavefront engine gets a warm workspace (its
  query plan prebuilt), so the ratio compares traversal against
  traversal;
* **end-to-end EMST** wall-clock (tree build + Borůvka solve) under
  **old** — the pre-wavefront configuration: single-pop ``reference``
  engine, adjacent-pairs bound scan, no warm frontier, one-point leaves —
  and the production defaults on the ``wavefront`` and ``compiled``
  engines, plus a **leaf-size sweep** under ``compiled``.

Every measured configuration is asserted *byte-identical* to the old path:
canonical payload form (:func:`repro.service.jobs.canonical_payload_bytes`)
for EMSTs, exact arrays for the kernels.

Everything is written to ``reports/BENCH_kernels.json`` (plus a rendered
table) so CI can archive the perf trajectory.  Runs standalone
(``python benchmarks/bench_kernels.py``, ``--smoke`` for CI sizes); with
enough cores the full run enforces the kernel-perf gates on the fixed
N=20k uniform-2D case: compiled >= 5x wavefront on each kernel, and the
wavefront defaults >= 1.5x the old path end to end.  Without a C compiler
the compiled rows are skipped (the engine falls back to wavefront) and
so is its gate.
"""

import argparse
import json
import os
import time

import numpy as np

from repro.bench.tables import REPORTS_DIR, render_table, save_report
from repro.bvh import (
    TraversalWorkspace,
    batched_knn,
    batched_nearest,
    build_bvh,
    compiled,
    traversal_engine,
)
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.bounds import compute_upper_bounds
from repro.core.emst import emst
from repro.core.labels import reduce_labels
from repro.data import generate
from repro.metrics import speedup
from repro.service.jobs import canonical_payload_bytes, emst_result_to_dict

#: Leaf blocking factors swept under the compiled engine.
LEAF_SWEEP = (1, 2, 4, 8)
#: The pre-wavefront configuration (the "old" path).
OLD_CONFIG = SingleTreeConfig(leaf_size=1, warm_frontier=False,
                              bound_window=1)

#: Kernel-perf gates on the fixed N=20k uniform-2D case (full runs on
#: >= 2 cores): the wavefront defaults over the old path end to end, and
#: the compiled kernels over the wavefront kernels on a tree's first call.
#: The compiled bar was set from the first measurement on a 2-core host:
#: round-0 nearest 22 ms vs 148-167 ms (6.7x), knn k=5 39 ms vs 396-400 ms
#: (10x).
GATE_SPEEDUP = 1.5
GATE_COMPILED_KERNEL = 5.0
GATE_N = 20_000
KNN_K = 5


def _canonical(result) -> bytes:
    return canonical_payload_bytes(emst_result_to_dict(result))


def _engines():
    """The engines measured here; ``compiled`` only if its library loads."""
    return ("compiled", "wavefront") if compiled.available() \
        else ("wavefront",)


def _time_emst(points, config, engine, *, reps=2):
    """Best-of-``reps`` wall seconds; returns (seconds, canonical bytes)."""
    best = float("inf")
    result = None
    with traversal_engine(engine):
        for _ in range(reps):
            started = time.perf_counter()
            result = emst(points, config=config)
            best = min(best, time.perf_counter() - started)
    return best, _canonical(result)


def _best_of(fn, reps):
    best, out = float("inf"), None
    for _ in range(reps):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
    return best, out


def run_kernels(points, reps: int = 3):
    """Round-0 nearest and k-NN kernel seconds per engine, answers checked.

    ``*_seconds`` time the first call on a tree, as a solve issues it
    (a fresh workspace, so the wavefront engine builds its query plan
    inside the call); ``*_warm_seconds`` reuse one workspace, so the
    wavefront plan is prebuilt and only traversal is timed.
    """
    bvh = build_bvh(points)
    n = bvh.n
    labels = np.arange(n, dtype=np.int64)
    node_labels = reduce_labels(bvh, labels)
    upper = compute_upper_bounds(bvh, labels,
                                 window=SingleTreeConfig().bound_window)
    nearest_kwargs = dict(
        query_labels=labels, node_labels=node_labels, point_labels=labels,
        init_radius_sq=upper[labels], query_ids=bvh.order,
        point_ids=bvh.order, self_queries=True)
    out = {}
    want = None
    for engine in ("reference",) + _engines():
        kernels = {
            "nearest": lambda ws: batched_nearest(
                bvh, bvh.points, engine=engine, workspace=ws,
                **nearest_kwargs),
            "knn": lambda ws: batched_knn(
                bvh, bvh.points, KNN_K, engine=engine, workspace=ws,
                self_queries=True),
        }
        if engine == "reference":  # answers only: far too slow to time
            want = {name: fn(None) for name, fn in kernels.items()}
            continue
        times = {}
        for name, fn in kernels.items():
            times[f"{name}_seconds"], got = _best_of(
                lambda: fn(TraversalWorkspace()), reps)
            ws = TraversalWorkspace()
            fn(ws)
            times[f"{name}_warm_seconds"], _ = _best_of(lambda: fn(ws), reps)
            fields = ("position", "distance_sq", "key") \
                if name == "nearest" else ("distance_sq",)
            for field in fields:
                assert np.array_equal(getattr(got, field),
                                      getattr(want[name], field)), \
                    f"{engine} {name} {field} diverged from reference"
        out[engine] = times
    if "compiled" in out:
        for kernel in ("nearest", "knn"):
            out[f"{kernel}_speedup"] = speedup(
                out["wavefront"][f"{kernel}_seconds"],
                out["compiled"][f"{kernel}_seconds"])
    return out


def run_ablation(n_points: int, reps: int = 2):
    """Kernels, old vs each engine's defaults, and the leaf-size sweep."""
    measurements = {"n_points": n_points, "dimensions": {}}
    rows = []
    engines = _engines()
    for dim, dataset in ((2, "Uniform100M2"), (3, "Uniform100M3")):
        points = generate(dataset, n_points, seed=0)
        cell = {"kernels": run_kernels(points, reps=reps + 1)}
        old_s, old_bytes = _time_emst(points, OLD_CONFIG, "reference",
                                      reps=reps)
        cell["old_seconds"] = old_s
        rows.append([f"{dim}D old (reference)", old_s * 1e3, 1.0])
        for engine in engines:
            seconds, got = _time_emst(points, SingleTreeConfig(), engine,
                                      reps=reps)
            assert got == old_bytes, \
                f"{engine} result diverged from reference ({dim}D)"
            cell[f"{engine}_seconds"] = seconds
            rows.append([f"{dim}D {engine} defaults", seconds * 1e3,
                         speedup(old_s, seconds)])
        cell["speedup"] = speedup(old_s, cell["wavefront_seconds"])
        if "compiled" in engines:
            cell["compiled_emst_speedup"] = speedup(
                cell["wavefront_seconds"], cell["compiled_seconds"])
        sweep_engine = engines[0]
        leaves = {}
        for leaf_size in LEAF_SWEEP:
            seconds, got = _time_emst(
                points, SingleTreeConfig(leaf_size=leaf_size), sweep_engine,
                reps=reps)
            assert got == old_bytes, f"leaf_size={leaf_size} diverged ({dim}D)"
            leaves[str(leaf_size)] = seconds
            rows.append([f"{dim}D {sweep_engine} leaf_size={leaf_size}",
                         seconds * 1e3, speedup(old_s, seconds)])
        cell["leaf_sweep_engine"] = sweep_engine
        cell["leaf_sweep_seconds"] = leaves
        for engine, times in cell["kernels"].items():
            if not isinstance(times, dict):
                continue
            for name, label in (("nearest", "round-0 nearest"),
                                ("knn", f"knn k={KNN_K}")):
                rows.append([f"{dim}D {engine} {label} kernel",
                             times[f"{name}_seconds"] * 1e3, "-"])
                rows.append([f"{dim}D {engine} {label} kernel (warm)",
                             times[f"{name}_warm_seconds"] * 1e3, "-"])
        measurements["dimensions"][str(dim)] = cell
    table = render_table(
        ["configuration", "ms", "speedup vs old"], rows,
        title=f"Traversal kernels — uniform n={n_points}")
    save_report("bench_kernels.txt", table)
    return measurements, table


def run_headline(n_points: int = 50_000):
    """Old vs the default engine at the acceptance size (one repetition)."""
    engine = _engines()[0]
    out = {"n_points": n_points, "engine": engine, "dimensions": {}}
    for dim, dataset in ((2, "Uniform100M2"), (3, "Uniform100M3")):
        points = generate(dataset, n_points, seed=0)
        old_s, old_bytes = _time_emst(points, OLD_CONFIG, "reference",
                                      reps=1)
        new_s, new_bytes = _time_emst(points, SingleTreeConfig(), engine,
                                      reps=1)
        assert new_bytes == old_bytes, f"headline diverged ({dim}D)"
        out["dimensions"][str(dim)] = {
            "old_seconds": old_s, "new_seconds": new_s,
            "speedup": speedup(old_s, new_s),
        }
    return out


def save_json(ablation, headline):
    payload = {
        "benchmark": "bench_kernels",
        "cpu_count": os.cpu_count(),
        "ablation": ablation,
        "headline": headline,
    }
    path = os.path.join(os.path.abspath(REPORTS_DIR), "BENCH_kernels.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check_gates(ablation):
    # The gates mirror bench_service's guard: perf bars only bind when
    # the host has real cores to measure on.
    cores = os.cpu_count() or 1
    if cores < 2:
        return []
    cell = ablation["dimensions"]["2"]
    n = ablation["n_points"]
    got = cell["speedup"]
    assert got >= GATE_SPEEDUP, (
        f"kernel-perf gate: wavefront defaults {got:.2f}x vs reference "
        f"on n={n} uniform 2D, need >= {GATE_SPEEDUP}x")
    passed = [f"wavefront >= {GATE_SPEEDUP}x reference end to end"]
    kernels = cell["kernels"]
    if "compiled" in kernels:
        for kernel in ("nearest", "knn"):
            got = kernels[f"{kernel}_speedup"]
            assert got >= GATE_COMPILED_KERNEL, (
                f"kernel-perf gate: compiled {kernel} kernel {got:.2f}x vs "
                f"wavefront on n={n} uniform 2D, need >= "
                f"{GATE_COMPILED_KERNEL}x")
        passed.append(f"compiled >= {GATE_COMPILED_KERNEL}x wavefront "
                      f"on both kernels")
    return passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-points", type=int, default=GATE_N,
                        help="points per EMST in the ablation sweep")
    parser.add_argument("--headline-points", type=int, default=50_000,
                        help="points for the old-vs-new headline run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and no perf assertions (CI smoke: "
                             "exercises every path incl. the byte-identity "
                             "checks, records the JSON)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n_points, args.headline_points = 4000, 8000

    ablation, table = run_ablation(args.n_points,
                                   reps=1 if args.smoke else 2)
    print(table)
    headline = run_headline(args.headline_points)
    path = save_json(ablation, headline)
    print(f"\nmeasurements written to {path}")
    for dim, cell in ablation["dimensions"].items():
        kernels = cell["kernels"]
        if "compiled" in kernels:
            print(f"{dim}D n={ablation['n_points']}: compiled vs wavefront "
                  f"nearest {kernels['nearest_speedup']:.1f}x, "
                  f"knn {kernels['knn_speedup']:.1f}x, "
                  f"whole EMST {cell['compiled_emst_speedup']:.2f}x")
    for dim, cell in headline["dimensions"].items():
        print(f"headline {dim}D n={headline['n_points']} "
              f"({headline['engine']}): "
              f"{cell['old_seconds']:.2f}s -> {cell['new_seconds']:.2f}s "
              f"({cell['speedup']:.2f}x)")
    if not args.smoke:
        for gate in _check_gates(ablation):
            print(f"ok: kernel-perf gate passed ({gate}, "
                  f"n={args.n_points} uniform 2D)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
