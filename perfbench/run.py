"""The repo benchmark: one command, every workload, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` adds a traced pass that times each layer's
public functions from outside (see ``tracing.py``) and reports the
per-layer metrics instead.  Every metric is printed by name with its unit
and sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits nonzero when an
answer differs from the expected one.  It keeps itself and every process
it starts on one CPU, and the result line's times are scaled by a host
probe run beside them (``README.md``, *Host speed*).

Workloads (why each is here is in ``library.py`` and ``serve.py``):
``emst-uniform2d``, ``hdbscan-hacc3d`` and ``serve-mixed``.  ``all``
runs the workloads ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    ROUNDS,
    Metric,
    pin_to_one_cpu,
    print_report,
    require_program,
    result_line,
)

#: Every workload that runs by name.
WORKLOADS = ("emst-uniform2d", "hdbscan-hacc3d", "serve-mixed")

#: Metrics of the ``--trace 0`` result line, on every workload.
#: ``solve_s`` is the median time to a freshly computed answer (a library
#: solve call; a cold request on ``serve-mixed``).  ``repeat_p50_ms`` is
#: the median time to answer an input already seen in the run (the
#: library keeps no cache, so it is the same solve; a result-cache hit on
#: ``serve-mixed``).
END_TO_END = ("solve_s", "repeat_p50_ms", "setup_s", "peak_rss_mb")


def _per_layer() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every ``--trace 1`` metric."""
    rows = [(f"bvh.{n}_s", "s", "lower")
            for n in ("build", "plan", "nearest", "knn")]
    rows += [(f"bvh.{ph}.{f}", "count", "lower") for ph in ("core", "mst")
             for f in ("distance_evals", "nodes_visited", "lane_steps")]
    rows.append(("bvh.edge_yield", "edges/eval", "higher"))
    rows += [(f"core.{n}_s", "s", "lower")
             for n in ("labels", "bounds", "outgoing", "merge",
                       "outgoing_glue")]
    rows.append(("core.rounds", "count", "lower"))
    for r in range(ROUNDS):
        rows += [(f"core.r{r}.nearest_s", "s", "lower"),
                 (f"core.r{r}.distance_evals", "count", "lower")]
    rows += [(f"hdbscan.{n}_s", "s", "lower")
             for n in ("linkage", "condense", "extract")]
    for kind in ("hit", "cold"):
        rows += [(f"client.{kind}.submit_ms", "ms", "lower"),
                 (f"client.{kind}.result_ms", "ms", "lower"),
                 (f"client.{kind}.request_bytes", "B", "lower"),
                 (f"client.{kind}.response_bytes", "B", "lower"),
                 (f"service.{kind}.queue_ms", "ms", "lower"),
                 (f"service.{kind}.run_ms", "ms", "lower")]
    rows += [(n, "ms", "lower") for n in (
        "api.parse_ms", "api.decode_ms", "api.encode_ms",
        "api.encode_body_ms", "store.fingerprint_ms",
        "store.result_probe_ms", "store.put_ms", "store.disk_put_ms",
        "service.execute_ms")]
    rows += [("store.result_hit_ratio", "frac", "higher"),
             ("api.shed", "count", "lower"),
             ("client.late_p50_ms", "ms", "lower"),
             ("client.late_max_ms", "ms", "lower"),
             ("client.within_limit_frac", "frac", "higher"),
             ("client.hit_p90_ms", "ms", "lower"),
             ("trace.overhead_frac", "frac", "lower"),
             ("trace.coverage_frac", "frac", "higher"),
             ("trace.residual_ms", "ms", "lower")]
    return rows


PER_LAYER = _per_layer()


def listed_workloads() -> Tuple[str, ...]:
    """The workloads ``BENCHMARK.json`` lists, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(w["name"] for w in bench["workloads"])


def run_one(name: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[bool, int, int, Dict[str, Metric]]:
    """Run one workload, print its report; ``(correct, attempted,
    failed, result-line metrics)``."""
    if name == "serve-mixed":
        import serve
        e2e, counts, layers = serve.run(seed, seconds, trace)
    else:
        import library
        e2e, counts, layers = library.run(name, seed, seconds, trace)
    print_report(name, e2e, counts)
    if trace:
        # A layer that does not run on this workload reports 0.
        metrics = {key: layers.pop(key, Metric(0.0, unit, 0))
                   for key, unit, _ in PER_LAYER}
        print_report(f"{name} (traced, per layer)", metrics, {})
        print_report(f"{name} (traced, layer self time per operation)",
                     layers, {})
    else:
        metrics = {key: e2e[key] for key in END_TO_END}
    correct = counts["failed.mismatch"] == 0 and \
        counts.get("failed.prime", 0) == 0
    return correct, counts["attempted"], counts["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    pin_to_one_cpu()
    names = listed_workloads() if args.workload == "all" \
        else (args.workload,)
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Metric] = {}
    for name in names:
        ok, a, f, m = run_one(name, args.seed, args.seconds,
                              bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + a, \
            failed + f
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in m.items()})
    sys.stdout.flush()
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
