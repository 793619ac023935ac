"""Helpers shared by the benchmark's workloads.

Paths, child-process plumbing, the seeded open-loop schedule with its
bounded Zipf draw, the percentile rule and the result line.  Nothing here
imports the program under test, and NumPy is imported only inside the
functions that need it, so a solve process can time ``import repro``
(NumPy included) after importing this module.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in: its ``src/`` holds the program.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (store directories, span dumps).
OUT = ROOT / ".bench_out"

#: Independent random streams derived from one ``--seed``.
STREAM_SCHEDULE = 1
STREAM_WARM = 2
STREAM_FRESH = 3

#: Borůvka rounds itemised in the per-round figures.
ROUNDS = 12


def require_program() -> None:
    """Exit with code 2 unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}; run the "
              f"benchmark from the root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    The CPUs of a shared host run at different speeds at the same moment,
    so a host probe only speaks for the program's time when both ran on
    the same CPU.  A served request alternates between client and server
    anyway, so one CPU costs it no parallelism.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> Dict[str, str]:
    """Environment for the program's child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------ statistics

#: Percentiles the tail rule chooses from, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def _rank(pct: float, n: int) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of already sorted values."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values: Sequence[float], min_beyond: int = 10,
                    ladder: Sequence[float] = TAIL_LADDER
                    ) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` of the highest percentile with ``min_beyond``
    samples beyond it, or ``None`` when even the median has fewer.

    A sample lies beyond the nearest-rank percentile when it ranks above
    it: ``n - ceil(pct/100 * n)`` of them.  So p90 needs 100 samples and
    p99 needs 1000.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in ladder:
        if n - _rank(pct, n) >= min_beyond:
            best = (pct, nearest_rank(ordered, pct))
    return best


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ------------------------------------------------------------ host speed

#: Seconds :func:`host_probe` took, median, on the machine the benchmark
#: was written on.  The result line's times are scaled to a host that
#: runs the probe in exactly this long.
PROBE_REF_S = 0.1
#: Lanes of work in one whole probe.
PROBE_LANES = 960


def host_probe(lanes: int = PROBE_LANES) -> float:
    """Seconds one fixed piece of work takes on this host right now.

    A shared host's speed drifts by up to 2x over minutes, for the
    interpreter and NumPy alike, and that drift is far wider than the
    bound a change is judged by.  The probe is the same work on every
    commit and mixes the program's kinds of work: per 64-point lane, a
    NumPy distance block to 32 fixed points, its row minima, and a
    pure-Python union-find step.  A time divided by the probe's time
    next to it no longer moves with the host, only with the program.
    A shorter probe runs the first ``lanes`` lanes and is scaled up to
    the whole probe's length.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    points = rng.random((25_600, 3))
    anchors = points[:32]
    parent = list(range(4096))
    t0 = time.perf_counter()
    for lane in range(lanes):
        start = (lane % 400) * 64
        block = points[start:start + 64]
        d = ((block[:, None, :] - anchors[None, :, :]) ** 2).sum(-1)
        a, b = int(np.argmin(d.min(axis=1))), (lane * 7919) % 4096
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[a] = b
    return (time.perf_counter() - t0) * PROBE_LANES / lanes


def host_scale(probes: Sequence[float]) -> float:
    """Factor that scales times measured beside ``probes`` to the
    reference host: ``PROBE_REF_S`` over the probes' median."""
    return PROBE_REF_S / median(probes)


def host_adjusted(times: Sequence[float], probes: Sequence[float]
                  ) -> List[float]:
    """Each of ``times`` scaled to the reference host by the two probes
    that bracket it: ``probes[i]`` just before ``times[i]`` and
    ``probes[i + 1]`` just after, so ``len(probes) == len(times) + 1``."""
    if len(probes) != len(times) + 1:
        raise ValueError("one probe before each time and one after the last")
    return [t * PROBE_REF_S * 2.0 / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


# -------------------------------------------------------------- schedule

@dataclass(frozen=True)
class Arrival:
    """One request of the open-loop schedule.

    ``due`` is seconds after the start of the run.  ``kind`` is ``hit``
    (repeat a warm point set, ``index`` into the warm set) or ``cold``
    (a fresh point set, ``index`` counts fresh sets from 0).
    """

    due: float
    kind: str
    index: int


def zipf_cdf(n: int, exponent: float):
    """Cumulative weights of a Zipf law bounded to ranks ``0..n-1``."""
    import numpy as np
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def zipf_draw(uniform: float, cdf) -> int:
    """Map one uniform variate in ``[0, 1)`` to a Zipf rank."""
    import numpy as np
    return int(np.searchsorted(cdf, uniform, side="right"))


def poisson_schedule(seed: int, rate: float, seconds: float,
                     hit_share: float, warm_sets: int,
                     exponent: float) -> List[Arrival]:
    """Seeded Poisson arrivals over ``seconds`` at ``rate`` per second.

    The arrival count is fixed at ``round(rate * seconds)``: a Poisson
    process given its count has uniformly scattered arrival times.  A
    fixed share ``hit_share`` of them repeats a warm set (rank drawn
    Zipf); the rest each bring the next fresh set.  Fixing both counts
    keeps the offered load equal across seeds; only the seed decides the
    schedule, so the same seed replays it exactly.
    """
    import numpy as np
    rng = np.random.default_rng([seed, STREAM_SCHEDULE])
    count = round(rate * seconds)
    dues = np.sort(rng.random(count) * seconds)
    cold = np.zeros(count, dtype=bool)
    cold[rng.permutation(count)[:count - round(hit_share * count)]] = True
    cdf = zipf_cdf(warm_sets, exponent)
    ranks = rng.random(count)
    arrivals: List[Arrival] = []
    fresh = 0
    for due, is_cold, u in zip(dues.tolist(), cold.tolist(), ranks.tolist()):
        if is_cold:
            arrivals.append(Arrival(due, "cold", fresh))
            fresh += 1
        else:
            arrivals.append(Arrival(due, "hit", zipf_draw(u, cdf)))
    return arrivals


def schedule_bytes(arrivals: Sequence[Arrival]) -> bytes:
    """Canonical bytes of a schedule (exact float reprs)."""
    return json.dumps([[repr(a.due), a.kind, a.index] for a in arrivals],
                      separators=(",", ":")).encode()


def point_set(seed: int, stream: int, index: int, n: int, dim: int):
    """Point set ``index`` of one stream: uniform in the unit cube."""
    import numpy as np
    rng = np.random.default_rng([seed, stream, index])
    return rng.random((n, dim))


# ---------------------------------------------------------------- report

@dataclass
class Metric:
    """One reported figure with its unit and sample (or call) count."""

    value: float
    unit: str
    samples: int = 0


def print_report(workload: str, metrics: Dict[str, Metric],
                 counts: Dict[str, int]) -> None:
    """Human-readable lines: every metric by name, unit and count."""
    print(f"== {workload}")
    for name, count in counts.items():
        print(f"   {name:<28} {count}")
    for name, m in metrics.items():
        print(f"   {name:<28} {m.value:.6g} {m.unit} (n={m.samples})")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Metric]) -> str:
    """The final JSON line of a run."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(m.value), "unit": m.unit}
                    for name, m in metrics.items()},
    })
