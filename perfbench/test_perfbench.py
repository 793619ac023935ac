"""Tests of the benchmark's own helpers: the percentile rule, the seeded
schedule and Zipf draw, and the layer wrappers."""

import asyncio
import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402


# ------------------------------------------------------- percentile rule

@pytest.mark.parametrize("n, expected_pct", [
    (19, None),    # the median has only 9 samples beyond it
    (20, 50.0),
    (99, 50.0),    # p90 has 9 beyond
    (100, 90.0),
    (999, 90.0),   # p99 has 9 beyond
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected_pct):
    values = list(range(n, 0, -1))  # unsorted on purpose
    got = common.tail_percentile(values)
    if expected_pct is None:
        assert got is None
        return
    pct, value = got
    assert pct == expected_pct
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_value_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert common.tail_percentile(values) == (90.0, 90.0)
    assert common.tail_percentile(values, ladder=(50.0,)) == (50.0, 50.0)


# ------------------------------------------------- schedule and Zipf draw

SCHEDULE_ARGS = dict(rate=17.0, seconds=5.0, hit_share=0.8, warm_sets=32,
                     exponent=1.0)
#: sha256 of ``schedule_bytes`` for seed 7; pins the whole draw.
SCHEDULE_SHA256 = \
    "fe80cd9be7470703a9e4500a2c7139147484ef0c5bc339317fa2d4d8ab248ae4"


def test_schedule_is_byte_identical_for_one_seed():
    first = common.schedule_bytes(common.poisson_schedule(7, **SCHEDULE_ARGS))
    again = common.schedule_bytes(common.poisson_schedule(7, **SCHEDULE_ARGS))
    other = common.schedule_bytes(common.poisson_schedule(8, **SCHEDULE_ARGS))
    assert first == again
    assert first != other
    assert hashlib.sha256(first).hexdigest() == SCHEDULE_SHA256


def test_schedule_shape():
    arrivals = common.poisson_schedule(3, rate=50.0, seconds=20.0,
                                       hit_share=0.8, warm_sets=32,
                                       exponent=1.0)
    dues = [a.due for a in arrivals]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 20.0
    assert len(arrivals) == 1000
    hits = [a for a in arrivals if a.kind == "hit"]
    colds = [a.index for a in arrivals if a.kind == "cold"]
    assert len(hits) == 800
    assert colds == list(range(len(colds)))  # every fresh set is new
    assert all(0 <= a.index < 32 for a in hits)


def test_zipf_draw_is_bounded_and_rank_ordered():
    cdf = common.zipf_cdf(32, 1.0)
    assert common.zipf_draw(0.0, cdf) == 0
    assert common.zipf_draw(0.999999, cdf) == 31
    draws = [common.zipf_draw(u / 10000.0, cdf) for u in range(10000)]
    counts = [draws.count(k) for k in range(32)]
    assert counts == sorted(counts, reverse=True)
    # rank 0 takes 1/H_32 of the mass
    assert abs(counts[0] / 10000.0 - 1.0 / sum(1.0 / k
                                               for k in range(1, 33))) < 1e-3


def test_point_sets_are_seeded():
    a = common.point_set(5, common.STREAM_WARM, 3, 100, 2)
    assert a.tobytes() == common.point_set(5, common.STREAM_WARM, 3,
                                           100, 2).tobytes()
    assert a.tobytes() != common.point_set(5, common.STREAM_FRESH, 3,
                                           100, 2).tobytes()


# ------------------------------------------------------------ host speed

def test_host_adjusted_uses_the_bracketing_probes():
    ref = common.PROBE_REF_S
    # A host at half speed doubles both the solve and its probes.
    got = common.host_adjusted([2.0, 4.0], [ref, ref, 2 * ref])
    assert got == pytest.approx([2.0, 4.0 / 1.5])
    with pytest.raises(ValueError):
        common.host_adjusted([2.0, 4.0], [ref, ref])


def test_host_scale_is_reference_over_probe_median():
    ref = common.PROBE_REF_S
    assert common.host_scale([ref, 2 * ref, 4 * ref]) == pytest.approx(0.5)


def test_short_host_probe_is_scaled_to_a_whole_probe():
    whole = common.median([common.host_probe() for _ in range(3)])
    short = common.median([common.host_probe(common.PROBE_LANES // 4)
                           for _ in range(3)])
    assert 0.5 < short / whole < 2.0


# ---------------------------------------------------------------- wrappers

class _Owner:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    async def fetch(x):
        return x * 3


def _outer(tracer_owner, x):
    return tracer_owner.method(x) * 2


def test_wrappers_record_spans_and_restore_originals():
    owner_dict = dict(vars(_Owner))
    tracer = tracing.Tracer()
    tracer.wrap(_Owner, "method", "layer.method")
    tracer.wrap(_Owner, "build", "layer.build")
    tracer.wrap(_Owner, "fetch", "layer.fetch")
    module = sys.modules[__name__]
    original_outer = vars(module)["_outer"]
    tracer.wrap(module, "_outer", "layer.outer")
    try:
        with tracer.operation(42):
            assert module._outer(_Owner(), 1) == 4
        assert _Owner.build(5) == (_Owner, 5)
        assert asyncio.run(_Owner().fetch(2)) == 6
    finally:
        tracer.restore()
    assert vars(_Owner)["method"] is owner_dict["method"]
    assert vars(_Owner)["build"] is owner_dict["build"]
    assert vars(_Owner)["fetch"] is owner_dict["fetch"]
    assert vars(module)["_outer"] is original_outer
    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["layer.outer"], by_name["layer.method"]
    assert outer.parent is None and inner.parent == outer.sid
    assert outer.request == inner.request == 42
    assert by_name["layer.build"].request == by_name["layer.build"].sid
    totals = tracing.layer_totals(tracer.spans)
    assert totals["layer.outer"].calls == 1
    assert totals["layer.outer"].self_time == pytest.approx(
        outer.duration - inner.duration)
    assert by_name["layer.fetch"].parent is None
    assert tracing.root_time(tracer.spans) == pytest.approx(
        outer.duration + by_name["layer.build"].duration
        + by_name["layer.fetch"].duration)


def test_program_wrappers_restore_every_target():
    pytest.importorskip("repro")
    targets = tracing.LIBRARY_TARGETS + tracing.SERVER_TARGETS

    def current():
        return [vars(tracing.resolve(path))[attr] for path, attr, _ in targets]

    before = current()
    tracer = tracing.Tracer()
    try:
        tracer.install(targets)
        patched = current()
    finally:
        tracer.restore()
    assert all(p is not b for p, b in zip(patched, before))
    assert all(a is b for a, b in zip(current(), before))


def test_wrapped_solve_matches_unwrapped():
    np = pytest.importorskip("numpy")
    from repro import emst

    points = np.random.default_rng(0).random((300, 2))
    plain = emst(points)
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.LIBRARY_TARGETS)
        traced = emst(points)
    finally:
        tracer.restore()
    assert np.array_equal(plain.edges, traced.edges)
    names = {s.name for s in tracer.spans}
    assert {"bvh.build", "bvh.nearest", "core.labels", "core.bounds",
            "core.outgoing", "core.merge"} <= names


def test_round_times_attribute_traversals_to_rounds():
    S = tracing.Span
    spans = [S(0, "core.labels", 0.0, 0.1, None, 7),
             S(1, "bvh.nearest", 0.2, 0.5, None, 7),
             S(2, "core.labels", 1.0, 1.1, None, 7),
             S(3, "bvh.nearest", 1.2, 1.3, None, 7),
             S(4, "core.labels", 0.5, 0.6, None, 8),   # another request
             S(5, "bvh.nearest", 0.7, 0.9, None, 8)]
    assert tracing.round_times(spans, 3) == pytest.approx([0.5, 0.1, 0.0])
    assert tracing.round_times(spans, 1) == pytest.approx([0.5])


def test_solve_figures_and_explained():
    S = tracing.Span
    spans = [S(0, "core.outgoing", 0.0, 1.0, None, 1),
             S(1, "core.labels", 0.0, 0.1, 0, 1),
             S(2, "bvh.nearest", 0.2, 0.8, 0, 1),
             S(3, "service.execute", 2.0, 2.5, None, 2)]
    result = {"n_iterations": 1,
              "rounds": [{"distance_evals": 40}],
              "counters": {"mst": {"distance_evals": 100,
                                   "nodes_visited": 7, "lane_steps": 9}}}
    figures = tracing.solve_figures(spans, 2, [result], 51, rounds=2)
    assert "service.execute_s" not in figures
    assert figures["core.outgoing_s"].value == pytest.approx(0.5)
    assert figures["core.outgoing_glue_s"].value == pytest.approx(0.2)
    assert figures["core.r0.nearest_s"].value == pytest.approx(0.3)
    assert figures["core.r1.nearest_s"].value == 0.0
    assert figures["core.r0.distance_evals"].value == 40
    assert figures["core.r1.distance_evals"].value == 0
    assert figures["bvh.core.distance_evals"].value == 0
    assert figures["bvh.mst.lane_steps"].value == 9
    assert figures["bvh.edge_yield"].value == pytest.approx(0.5)
    seen = tracing.explained(spans, 2.0, 4)
    assert seen["trace.coverage_frac"].value == pytest.approx(0.75)
    assert seen["trace.residual_ms"].value == pytest.approx(125.0)
    assert seen["self.core.outgoing_ms"].value == pytest.approx(75.0)
