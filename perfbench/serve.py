"""The served workload: ``serve-mixed``.

Why it: it is the only workload that crosses the wire, the scheduler and
the store.  A ``repro serve`` process (defaults plus ``--store-dir`` in a
fresh directory) takes a seeded open-loop Poisson schedule from this
process over at most ``CONNECTIONS`` connections, through the repo's own
client.  Every request sends inline 2D points.  About 80% repeat one of
32 warm point sets (drawn Zipf), so they are result-cache hits whose cost
is the wire, decode, fingerprint, cache probe and scheduler.  The rest
are fresh point sets: cold solves that write the tree and result tiers
to memory and disk beside the read path.

Latency runs from a request's due time to its result bytes, so a stall
also delays the requests queued behind it.  Every answer is checked
against the canonical bytes of an in-process solve of the same points.
The result line's times are scaled by host probes run in the idle gaps
of the measured window (``common.host_probe``).
"""

from __future__ import annotations

import gc
import json
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROUNDS,
    STREAM_FRESH,
    STREAM_WARM,
    Arrival,
    Metric,
    child_env,
    digest,
    host_probe,
    host_scale,
    median,
    point_set,
    poisson_schedule,
    require_program,
    tail_percentile,
)

N_POINTS = 2000
WARM_SETS = 32
HIT_SHARE = 0.8
ZIPF_EXPONENT = 1.0
#: Concurrent connections.  One: a request never shares the server with
#: another, so a seed's arrival pattern does not decide how often a hit
#: runs beside a cold solve, and fewer of the client's threads compete
#: with the server for the node's two CPUs.
CONNECTIONS = 1
#: Offered load, requests per second: about an eighth of the rate this
#: mix saturates one connection at (``capacity.py``; the measurements are
#: in ``TRAJECTORY.json``).  A request that arrives while the one before
#: it is still in service waits, and a slower phase of a shared host
#: lengthens every service time and so makes more requests wait: at a
#: quarter of saturation that doubled the run-to-run spread of the
#: medians.
RATE = 4.0
#: Latency limits per class, ms: about 3x the unloaded p50 first
#: measured (hit 17 ms, cold 100 ms).  Fixed; do not re-derive.
LIMIT_MS = {"hit": 50.0, "cold": 300.0}
#: Seconds one request may take before it counts as timed out.
REQUEST_TIMEOUT_S = 20.0
#: Server spawns per run; the median spawn-to-healthy time is set-up.
SETUP_SAMPLES = 5
#: Lanes of one host probe run in an idle gap of the schedule (a quarter
#: of a whole probe, about 25 ms), and the shortest gap one starts in, s.
GAP_PROBE_LANES = 240
GAP_PROBE_MIN_S = 0.08

LAUNCHER = Path(__file__).resolve().parent / "launch_traced.py"


# -------------------------------------------------------------- server

def _default_sigint() -> None:
    # A shell without job control starts background jobs with SIGINT
    # ignored, and the server would inherit that and never shut down.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro serve`` process with its own store directory."""

    def __init__(self, tag: str, spans_path: Optional[Path] = None):
        self.dir = OUT / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        serve = ["serve", "--port", "0", "--store-dir",
                 str(self.dir / "store")]
        argv = [sys.executable, str(LAUNCHER), str(spans_path)] + serve \
            if spans_path is not None \
            else [sys.executable, "-m", "repro"] + serve
        self.log = open(self.dir / "server.log", "w+")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     env=child_env(),
                                     cwd=str(OUT.parent),
                                     preexec_fn=_default_sigint)
        try:
            self.url = self._wait_healthy(started + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, deadline: float) -> str:
        from repro.client import Client
        from repro.errors import ReproError
        url = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited ({self.proc.returncode}):"
                                   f" {self._log_tail()}")
            if url is None:
                self.log.seek(0)
                found = re.search(r"listening on (http://[\d.]+:\d+)",
                                  self.log.read())
                if found:
                    url = found.group(1)
                    client = Client(url, timeout=5.0, retries=0)
            if url is not None:
                try:
                    client.healthz()
                    return url
                except ReproError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy in time: {self._log_tail()}")

    def _log_tail(self) -> str:
        self.log.seek(0)
        return self.log.read()[-2000:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server's graceful shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ------------------------------------------------------ load generator

@dataclass
class Outcome:
    """What happened to one scheduled request."""

    kind: str
    status: str = "error"  # ok | mismatch | shed | timeout | error
    latency: float = 0.0   # due time to result bytes, s
    late: float = 0.0      # how late the generator dispatched it, s
    submit_s: float = 0.0
    result_s: float = 0.0
    request_bytes: int = 0
    response_bytes: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    reply: Optional[Dict[str, Any]] = None
    #: The payload's work counts (``counters``, ``rounds``,
    #: ``n_iterations``), kept on traced runs.
    work: Optional[Dict[str, Any]] = None


@dataclass
class Inputs:
    """Request bodies and expected answer digests for one seed."""

    warm: List[Dict[str, Any]]
    fresh: List[Dict[str, Any]]
    warm_digest: List[str]
    fresh_digest: List[str]

    def body(self, a: Arrival) -> Tuple[Dict[str, Any], str]:
        if a.kind == "hit":
            return self.warm[a.index], self.warm_digest[a.index]
        return self.fresh[a.index], self.fresh_digest[a.index]


def make_inputs(seed: int, n_fresh: int) -> Inputs:
    """Bodies plus the canonical digest of an in-process solve of each."""
    from repro import emst
    from repro.service.jobs import canonical_payload_bytes, \
        emst_result_to_dict

    def one(stream: int, i: int) -> Tuple[Dict[str, Any], str]:
        points = point_set(seed, stream, i, N_POINTS, 2)
        expected = digest(canonical_payload_bytes(
            emst_result_to_dict(emst(points))))
        return {"points": points.tolist(), "algorithm": "emst"}, expected

    warm = [one(STREAM_WARM, i) for i in range(WARM_SETS)]
    fresh = [one(STREAM_FRESH, i) for i in range(n_fresh)]
    return Inputs([b for b, _ in warm], [b for b, _ in fresh],
                  [d for _, d in warm], [d for _, d in fresh])


def _send(client, body: Dict[str, Any], out: Outcome, due: float,
          deadline: float) -> None:
    """Submit one job and wait for it; keeps the reply for :func:`_settle`."""
    from repro.errors import NodeOverloadedError, ReproError
    try:
        t0 = time.perf_counter()
        accepted = client.submit(body)
        t1 = time.perf_counter()
        remaining = max(0.001, min(REQUEST_TIMEOUT_S - (t1 - due),
                                   deadline - t1))
        out.reply = client.wait(accepted["job_id"], timeout=remaining)
        t2 = time.perf_counter()
    except NodeOverloadedError:
        out.status = "shed"
        return
    except TimeoutError:
        out.status = "timeout"
        return
    except ReproError:
        out.status = "error"
        return
    out.latency = t2 - due
    out.submit_s, out.result_s = t1 - t0, t2 - t1
    out.status = "timeout" if out.latency > REQUEST_TIMEOUT_S else "ok"


def _settle(out: Outcome, body: Dict[str, Any], expected: str,
            measure: bool) -> None:
    """Check one reply's answer (after the timed window) and keep what
    the per-layer figures need."""
    from repro.service.jobs import canonical_payload_bytes
    reply, out.reply = out.reply, None
    if out.status != "ok":
        return
    payload = reply.get("payload")
    if reply.get("status") != "done" or payload is None:
        out.status = "error"
        return
    if digest(canonical_payload_bytes(payload)) != expected:
        out.status = "mismatch"
    out.timings = reply.get("timings", {})
    if measure:
        # NodeClient sends json.dumps(body) and the server answers with
        # json.dumps(reply); re-encoding reproduces both byte counts.
        out.request_bytes = len(json.dumps(body).encode())
        out.response_bytes = len(json.dumps(reply).encode())
        out.work = {key: payload[key]
                    for key in ("counters", "rounds", "n_iterations")}


def drive(url: str, schedule: List[Arrival], inputs: Inputs,
          measure_bytes: bool
          ) -> Tuple[List[Outcome], List[float], float, float]:
    """Replay the schedule open-loop; ``(outcomes, probes, start, end)``.

    While no request is in flight and the next is due in more than
    ``GAP_PROBE_MIN_S``, the generator runs short host probes, so the
    host's speed is sampled all through the window but never beside a
    request.
    """
    from repro.client import Client
    outcomes = [Outcome(a.kind) for a in schedule]
    work: "queue.Queue[Optional[int]]" = queue.Queue()
    in_flight = [0]
    lock = threading.Lock()
    idle = threading.Event()  # set while no request is in flight
    idle.set()
    probes: List[float] = []
    start = time.perf_counter() + 0.05
    deadline = start + schedule[-1].due + 2 * REQUEST_TIMEOUT_S

    def worker() -> None:
        client = Client(url, timeout=REQUEST_TIMEOUT_S, retries=0)
        while True:
            i = work.get()
            if i is None:
                return
            due = start + schedule[i].due
            try:
                if time.perf_counter() >= deadline:
                    outcomes[i].status = "timeout"
                    continue
                _send(client, inputs.body(schedule[i])[0], outcomes[i],
                      due, deadline)
            except Exception:  # noqa: BLE001 — count it, keep the worker
                outcomes[i].status = "error"
                traceback.print_exc()
            finally:
                with lock:
                    in_flight[0] -= 1
                    if in_flight[0] == 0:
                        idle.set()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for i, a in enumerate(schedule):
        due = start + a.due
        while True:
            spare = due - time.perf_counter() - GAP_PROBE_MIN_S
            if spare <= 0 or not idle.wait(timeout=spare):
                break
            probes.append(host_probe(GAP_PROBE_LANES))
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        outcomes[i].late = max(0.0, time.perf_counter() - due)
        with lock:
            in_flight[0] += 1
            idle.clear()
        work.put(i)
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join(timeout=max(1.0, deadline - time.perf_counter() + 5.0))
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a request outlived the run deadline")
    end = time.perf_counter()
    for a, out in zip(schedule, outcomes):
        _settle(out, *inputs.body(a), measure_bytes)
    return outcomes, probes, start, end


def result_lookups(client) -> Tuple[float, float]:
    """``(hits, lookups)`` of the result tier, from ``/v1/metrics``."""
    hits = lookups = 0.0
    for metric in client.metrics_json().get("metrics", []):
        if metric.get("name") != "repro_cache_lookups_total":
            continue
        for sample in metric.get("samples", []):
            labels = sample.get("labels", {})
            if labels.get("tier") != "result":
                continue
            value = float(sample.get("value", 0.0))
            if labels.get("outcome") == "hit":
                hits += value
            if labels.get("level") == "memory":
                lookups += value
    return hits, lookups


def phase(tag: str, schedule: List[Arrival], inputs: Inputs,
          traced: bool) -> Dict[str, Any]:
    """Start a server, prime the warm set, replay the schedule, stop."""
    from repro.client import Client
    spans_path = OUT / f"{tag}-spans.json" if traced else None
    server = Server(tag, spans_path)
    try:
        client = Client(server.url, timeout=REQUEST_TIMEOUT_S, retries=0)
        prime_failed = 0
        for body, expected in zip(inputs.warm, inputs.warm_digest):
            out = Outcome("cold")
            now = time.perf_counter()
            _send(client, body, out, now, now + 60.0)
            _settle(out, body, expected, False)
            prime_failed += out.status != "ok"
        hits0, lookups0 = result_lookups(client)
        # Replies are kept until the window ends; a collector pass over
        # them would stall the generator.
        gc.collect()
        gc.disable()
        try:
            outcomes, probes, start, end = drive(server.url, schedule,
                                                 inputs, traced)
        finally:
            gc.enable()
        hits1, lookups1 = result_lookups(client)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    spans = []
    if traced:
        from tracing import Span
        rows = json.loads(spans_path.read_text())
        spans = [s for s in map(Span.from_row, rows)
                 if start <= s.start <= end]
    lookups = lookups1 - lookups0
    return {"outcomes": outcomes, "probes": probes,
            "setup_s": server.setup_s,
            "peak_rss_mb": rss, "prime_failed": prime_failed,
            "hit_ratio": (hits1 - hits0) / lookups if lookups else 0.0,
            "spans": spans}


# ------------------------------------------------------------- metrics

def _latencies(outcomes: List[Outcome], kind: str) -> List[float]:
    return [o.latency for o in outcomes if o.kind == kind
            and o.status == "ok"]


def _end_to_end(run: Dict[str, Any], setup: List[float], scale: float
                ) -> Tuple[Dict[str, Metric], Dict[str, int]]:
    """The run's metrics; ``scale`` takes the host's speed out of the
    result line's times (``common.host_scale``)."""
    outcomes: List[Outcome] = run["outcomes"]
    hit = _latencies(outcomes, "hit")
    cold = _latencies(outcomes, "cold")
    by_status = {s: sum(o.status == s for o in outcomes)
                 for s in ("ok", "mismatch", "shed", "timeout", "error")}
    # The warm-set priming requests are operations too.
    attempted = len(outcomes) + WARM_SETS
    failed = len(outcomes) - by_status["ok"] + run["prime_failed"]
    within = sum(1 for o in outcomes if o.status == "ok"
                 and o.latency * 1e3 <= LIMIT_MS[o.kind])
    metrics = {
        "solve_s": Metric(median(cold) * scale, "s", len(cold)),
        "repeat_p50_ms": Metric(median(hit) * scale * 1e3, "ms", len(hit)),
        "setup_s": Metric(median(setup) * scale, "s", len(setup)),
        "peak_rss_mb": Metric(run["peak_rss_mb"], "MB", 1),
        "failed_frac": Metric(failed / attempted, "frac", attempted),
        "host_speed": Metric(scale, "x", len(run["probes"])),
        "hit_p50_ms": Metric(median(hit) * 1e3, "ms", len(hit)),
        "cold_p50_ms": Metric(median(cold) * 1e3, "ms", len(cold)),
        "within_limit_frac": Metric(within / len(outcomes), "frac",
                                    len(outcomes)),
    }
    tail = tail_percentile(hit)
    if tail is not None and tail[0] > 50.0:
        metrics[f"hit_p{tail[0]:g}_ms"] = Metric(tail[1] * 1e3, "ms",
                                                 len(hit))
    counts = {"attempted": attempted, "succeeded": attempted - failed,
              "failed": failed, "failed.mismatch": by_status["mismatch"],
              "failed.shed_429": by_status["shed"],
              "failed.timeout": by_status["timeout"],
              "failed.error": by_status["error"],
              "failed.prime": run["prime_failed"]}
    return metrics, counts


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _per_layer(run: Dict[str, Any], untraced: Dict[str, Any]
               ) -> Dict[str, Metric]:
    from tracing import explained, layer_totals, solve_figures
    outcomes: List[Outcome] = [o for o in run["outcomes"]
                               if o.status == "ok"]
    layers: Dict[str, Metric] = {}
    for kind in ("hit", "cold"):
        mine = [o for o in outcomes if o.kind == kind]
        n = len(mine)
        for key, unit, get in (
                ("client.{}.submit_ms", "ms", lambda o: o.submit_s * 1e3),
                ("client.{}.result_ms", "ms", lambda o: o.result_s * 1e3),
                ("client.{}.request_bytes", "B", lambda o: o.request_bytes),
                ("client.{}.response_bytes", "B",
                 lambda o: o.response_bytes),
                ("service.{}.queue_ms", "ms",
                 lambda o: o.timings.get("queue", 0.0) * 1e3),
                ("service.{}.run_ms", "ms",
                 lambda o: o.timings.get("run", 0.0) * 1e3)):
            layers[key.format(kind)] = Metric(
                median([get(o) for o in mine]), unit, n)
    late = [o.late * 1e3 for o in run["outcomes"]]
    layers["client.late_p50_ms"] = Metric(median(late), "ms", len(late))
    layers["client.late_max_ms"] = Metric(max(late), "ms", len(late))
    layers["api.shed"] = Metric(
        sum(o.status == "shed" for o in run["outcomes"]), "count",
        len(run["outcomes"]))
    layers["store.result_hit_ratio"] = Metric(run["hit_ratio"], "frac", 1)

    # Server-side layers.  Store, wire and execute calls are per call;
    # the solve layers (bvh, core, hdbscan) are per cold request.
    spans = run["spans"]
    totals = layer_totals(spans)
    per_call = {"api.parse": "api.parse_ms", "api.decode": "api.decode_ms",
                "api.encode": "api.encode_ms",
                "api.encode_body": "api.encode_body_ms",
                "store.fingerprint": "store.fingerprint_ms",
                "store.probe.result": "store.result_probe_ms",
                "service.execute": "service.execute_ms",
                "store.disk_put": "store.disk_put_ms"}
    for name, key in per_call.items():
        if name in totals:
            t = totals[name]
            layers[key] = Metric(t.total / t.calls * 1e3, "ms", t.calls)
    puts = [t for name, t in totals.items() if name.startswith("store.put.")]
    if puts:
        calls = sum(t.calls for t in puts)
        layers["store.put_ms"] = Metric(
            sum(t.total for t in puts) / calls * 1e3, "ms", calls)
    colds = [o for o in outcomes if o.kind == "cold"]
    layers.update(solve_figures(spans, len(colds),
                                [o.work for o in colds if o.work],
                                N_POINTS, ROUNDS))
    layers.update(explained(spans, sum(o.latency for o in outcomes),
                            len(outcomes)))
    base = _mean(_latencies(untraced["outcomes"], "hit")
                 + _latencies(untraced["outcomes"], "cold"))
    traced = _mean([o.latency for o in outcomes])
    layers["trace.overhead_frac"] = Metric(
        traced / base - 1.0 if base else 0.0, "frac", len(outcomes))
    return layers


def run(seed: int, seconds: float, trace: bool
        ) -> Tuple[Dict[str, Metric], Dict[str, int], Dict[str, Metric]]:
    """One run: ``(end-to-end metrics, counts, per-layer metrics)``."""
    require_program()
    OUT.mkdir(exist_ok=True)
    schedule = poisson_schedule(seed, RATE, seconds, HIT_SHARE, WARM_SETS,
                                ZIPF_EXPONENT)
    if not schedule:
        raise RuntimeError("empty schedule; raise --seconds")
    n_fresh = sum(a.kind == "cold" for a in schedule)
    inputs = make_inputs(seed, n_fresh)
    setup: List[float] = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            server = Server(f"setup{i}")
            server.stop()
            setup.append(server.setup_s)
    untraced = phase("serve", schedule, inputs, traced=False)
    setup.append(untraced["setup_s"])
    metrics, counts = _end_to_end(untraced, setup,
                                  host_scale(untraced["probes"]))
    layers: Dict[str, Metric] = {}
    if trace:
        traced = phase("serve-traced", schedule, inputs, traced=True)
        _, traced_counts = _end_to_end(traced, setup, 1.0)
        for key, value in traced_counts.items():
            counts[key] += value
        layers = _per_layer(traced, untraced)
        layers["client.within_limit_frac"] = metrics["within_limit_frac"]
        hit = _latencies(untraced["outcomes"], "hit")
        p90 = tail_percentile(hit, ladder=(90.0,))
        if p90 is not None:
            layers["client.hit_p90_ms"] = Metric(p90[1] * 1e3, "ms",
                                                 len(hit))
    return metrics, counts, layers
