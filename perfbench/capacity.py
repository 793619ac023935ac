"""Measure the request rate ``serve-mixed``'s mix saturates the server at.

Usage::

    python3 perfbench/capacity.py [--seed N] [--seconds S] [--offered R]

Replays the ``serve-mixed`` mix (same point sets, hit share, Zipf draw
and connections) with every request due within ``--seconds`` at a rate
far above what the server completes, so the connections never idle until
the last reply, and prints the completed requests per second (from the
start of the schedule to the last reply) as one JSON line.
``serve.RATE`` is set from this figure; the recorded measurements are in
``TRAJECTORY.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import serve  # noqa: E402
from common import OUT, poisson_schedule, require_program  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--offered", type=float, default=200.0)
    args = parser.parse_args(argv)
    require_program()
    OUT.mkdir(exist_ok=True)
    schedule = poisson_schedule(args.seed, args.offered, args.seconds,
                                serve.HIT_SHARE, serve.WARM_SETS,
                                serve.ZIPF_EXPONENT)
    inputs = serve.make_inputs(args.seed,
                               sum(a.kind == "cold" for a in schedule))
    run = serve.phase("capacity", schedule, inputs, traced=False)
    done = [(a.due + o.latency, o) for a, o in zip(schedule, run["outcomes"])
            if o.status == "ok"]
    busy_s = max(t for t, _ in done)
    print(json.dumps({
        "offered_per_s": args.offered,
        "connections": serve.CONNECTIONS,
        "requests": len(schedule),
        "completed": len(done),
        "busy_s": round(busy_s, 3),
        "completed_per_s": round(len(done) / busy_s, 2),
    }))
    return 0 if len(done) == len(schedule) else 1


if __name__ == "__main__":
    sys.exit(main())
