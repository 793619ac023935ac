"""Traversal engines: equivalence, counters, workspaces, plans.

The compiled and wavefront kernels must be *indistinguishable by answer*
from the single-pop reference engine on every query the EMST pipeline
issues —
including adversarial inputs (duplicate points, collinear sets,
all-identical points) under every constraint combination (component
labels x mutual-reachability x self-exclusion x initial radius).  The
canonical payload bytes certify that end to end; a pinned-counter
regression keeps the multi-pop accounting semantics from drifting.
"""

import numpy as np
import pytest
from hypothesis import given

import repro.bvh.wavefront as wavefront
from repro.bvh import (
    TraversalWorkspace,
    batched_knn,
    batched_nearest,
    build_bvh,
    radius_search,
    traversal_engine,
)
from repro.bvh.plan import build_query_plan
from repro.bvh import compiled
from repro.bvh.traversal import (
    ENGINES,
    get_default_engine,
    set_default_engine,
)
from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.core.labels import reduce_labels
from repro.errors import InvalidInputError
from repro.hdbscan.hdbscan import hdbscan
from repro.kokkos.counters import CostCounters
from repro.service.jobs import (
    canonical_payload_bytes,
    emst_result_to_dict,
    hdbscan_result_to_dict,
)
from tests.conftest import finite_points

#: The pre-wavefront configuration: the semantics every new knob must
#: reproduce byte for byte.
OLD_CONFIG = SingleTreeConfig(leaf_size=1, warm_frontier=False,
                              bound_window=1)


def adversarial_point_sets():
    rng = np.random.default_rng(7)
    uniform = rng.random((120, 2))
    return [
        ("uniform", uniform),
        ("duplicates", np.repeat(rng.random((40, 2)), 3, axis=0)),
        ("collinear", np.stack([np.linspace(0.0, 1.0, 90),
                                np.zeros(90)], axis=1)),
        ("identical", np.zeros((33, 2))),
        ("two-clusters", np.concatenate([uniform * 0.01,
                                         uniform * 0.01 + 5.0])),
        # Geometric spacing peels one point per level: a tree ~35 deep.
        ("deep", np.repeat(2.0 ** -np.arange(48.0), 2).reshape(48, 2)),
    ]


class TestEngineSelection:
    def test_default_is_compiled(self):
        want = "compiled" if compiled.available() else "wavefront"
        assert get_default_engine() == want
        assert set(ENGINES) == {"compiled", "wavefront", "reference"}

    def test_context_manager_restores(self):
        before = get_default_engine()
        with traversal_engine("reference"):
            assert get_default_engine() == "reference"
        assert get_default_engine() == before

    def test_rejects_unknown_engine(self):
        with pytest.raises(InvalidInputError):
            set_default_engine("gpu")
        rng = np.random.default_rng(0)
        bvh = build_bvh(rng.random((10, 2)))
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, bvh.points, engine="cuda")


class TestByteIdentity:
    """New vs reference results on adversarial inputs, every constraint."""

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    @pytest.mark.parametrize("leaf_size", [1, 3])
    @pytest.mark.parametrize("warm", [False, True])
    def test_emst_canonical_bytes(self, name, pts, leaf_size, warm):
        reference = emst(pts, config=OLD_CONFIG)
        want = canonical_payload_bytes(emst_result_to_dict(reference))
        config = SingleTreeConfig(leaf_size=leaf_size, warm_frontier=warm)
        for engine in ENGINES:
            with traversal_engine(engine):
                got = emst(pts, config=config)
            assert canonical_payload_bytes(emst_result_to_dict(got)) \
                == want, (name, leaf_size, warm, engine)

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_mrd_emst_canonical_bytes(self, name, pts):
        reference = mutual_reachability_emst(pts, 4, config=OLD_CONFIG)
        want = canonical_payload_bytes(emst_result_to_dict(reference))
        for engine in ENGINES:
            for leaf_size in (1, 4):
                with traversal_engine(engine):
                    got = mutual_reachability_emst(
                        pts, 4, config=SingleTreeConfig(leaf_size=leaf_size))
                assert canonical_payload_bytes(emst_result_to_dict(got)) \
                    == want, (name, engine, leaf_size)

    def test_hdbscan_canonical_bytes(self):
        rng = np.random.default_rng(3)
        centers = rng.random((4, 2)) * 10
        pts = np.concatenate([c + rng.normal(0, 0.1, (50, 2))
                              for c in centers])
        reference = hdbscan(pts, min_cluster_size=6, k_pts=4,
                            config=OLD_CONFIG)
        want = canonical_payload_bytes(hdbscan_result_to_dict(reference))
        for engine in ENGINES:
            with traversal_engine(engine):
                got = hdbscan(pts, min_cluster_size=6, k_pts=4)
            assert canonical_payload_bytes(hdbscan_result_to_dict(got)) \
                == want, engine

    @given(finite_points(min_n=2, max_n=60))
    def test_property_engines_agree_on_emst(self, pts):
        results = []
        for engine in ENGINES:
            with traversal_engine(engine):
                results.append(emst(pts))
        for other in results[1:]:
            assert np.array_equal(results[0].edges, other.edges)
            assert np.array_equal(results[0].weights, other.weights)

    @pytest.mark.parametrize("name,pts", adversarial_point_sets())
    def test_constrained_nearest_all_combos(self, name, pts):
        """labels x mrd x exclude x init-radius, keyed: identical answers."""
        for leaf_size in (1, 3):
            self._check_all_combos(name, build_bvh(pts, leaf_size=leaf_size))

    def _check_all_combos(self, name, bvh):
        rng = np.random.default_rng(11)
        n = bvh.n
        labels = rng.integers(0, 3, size=n)
        node_labels = reduce_labels(bvh, labels)
        core = rng.random(n) * 0.05
        combos = []
        for use_labels in (False, True):
            for use_mrd in (False, True):
                for use_excl in (False, True):
                    for use_radius in (False, True):
                        combos.append(
                            (use_labels, use_mrd, use_excl, use_radius))
        for use_labels, use_mrd, use_excl, use_radius in combos:
            kwargs = dict(query_ids=bvh.order, point_ids=bvh.order)
            if use_labels:
                kwargs.update(query_labels=labels, node_labels=node_labels,
                              point_labels=labels)
            if use_mrd:
                kwargs.update(query_core_sq=core, point_core_sq=core)
            if use_excl:
                kwargs.update(exclude_position=np.arange(n))
            if use_radius:
                kwargs.update(init_radius_sq=np.full(n, 0.3))
            outs = []
            for engine in ENGINES:
                outs.append(batched_nearest(bvh, bvh.points, engine=engine,
                                            **kwargs))
            combo = (bvh.leaf_size, use_labels, use_mrd, use_excl,
                     use_radius)
            for engine, out in zip(ENGINES[1:], outs[1:]):
                assert np.array_equal(outs[0].position, out.position), \
                    (name, combo, engine)
                assert np.array_equal(outs[0].distance_sq,
                                      out.distance_sq), (name, combo, engine)
                assert np.array_equal(outs[0].key, out.key), \
                    (name, combo, engine)

    def test_knn_distances_agree(self):
        for name, pts in adversarial_point_sets():
            for leaf_size in (1, 3):
                bvh = build_bvh(pts, leaf_size=leaf_size)
                for k in (1, 4):
                    for excl in (None, np.arange(bvh.n)):
                        want = batched_knn(bvh, bvh.points, k,
                                           engine="reference",
                                           exclude_position=excl)
                        for engine in ENGINES:
                            got = batched_knn(bvh, bvh.points, k,
                                              engine=engine,
                                              exclude_position=excl)
                            assert np.array_equal(
                                got.distance_sq, want.distance_sq), \
                                (name, leaf_size, k, engine)

    def test_radius_sets_agree(self):
        for name, pts in adversarial_point_sets():
            bvh = build_bvh(pts)
            offs_a, pos_a, _ = radius_search(bvh, bvh.points, 0.2,
                                             engine="wavefront")
            offs_b, pos_b, _ = radius_search(bvh, bvh.points, 0.2,
                                             engine="reference")
            assert np.array_equal(offs_a, offs_b), name
            for i in range(bvh.n):
                assert set(pos_a[offs_a[i]:offs_a[i + 1]]) == \
                    set(pos_b[offs_b[i]:offs_b[i + 1]]), (name, i)


def _grid16():
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class TestCounterRegression:
    """Exact visit counts on a fixed 16-point grid — pinned so the
    multi-pop counter semantics cannot silently drift."""

    def _count(self, bvh, engine, **kwargs):
        counters = CostCounters()
        batched_nearest(bvh, bvh.points, engine=engine, counters=counters,
                        exclude_position=np.arange(bvh.n), **kwargs)
        return counters

    def test_reference_counts(self):
        c = self._count(build_bvh(_grid16()), "reference")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (136, 256, 376, 48, 48, 136, 10)

    def test_wavefront_width1_matches_reference_pops(self, monkeypatch):
        # Single-pop wavefront: identical traversal, remembered bounds
        # (the only divergence is box evals: root seed + 2 per survivor
        # instead of 3 recomputes per pop).
        monkeypatch.setattr(wavefront, "DEFAULT_WIDTH", 1)
        c = self._count(build_bvh(_grid16()), "wavefront")
        assert (c.nodes_visited, c.stack_ops, c.distance_evals,
                c.leaf_visits, c.lane_steps, c.warp_steps) \
            == (136, 256, 48, 48, 136, 10)
        assert c.box_distance_evals == 256

    def test_wavefront_multi_pop_counts(self, monkeypatch):
        # Draining 2 entries per lane per iteration halves the lane steps
        # and overvisits nodes against the per-drain (staler) radii —
        # both effects pinned exactly.
        monkeypatch.setattr(wavefront, "DEFAULT_WIDTH", 2)
        c = self._count(build_bvh(_grid16()), "wavefront")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (184, 352, 288, 64, 64, 104, 7)

    def test_wavefront_seeded_counts(self, monkeypatch):
        # Plan seeding starts each lane at its path siblings: node visits
        # drop from 136 to 88 and lane steps from 136 to 36 on the grid.
        c = CostCounters()
        bvh = build_bvh(_grid16())
        monkeypatch.setattr(wavefront, "DEFAULT_WIDTH", 4)
        batched_nearest(bvh, bvh.points, engine="wavefront",
                        workspace=TraversalWorkspace(),
                        exclude_position=np.arange(16), counters=c,
                        self_queries=True)
        assert (c.nodes_visited, c.stack_ops, c.distance_evals,
                c.leaf_visits, c.lane_steps, c.warp_steps) \
            == (88, 176, 48, 48, 36, 3)

    @pytest.mark.skipif(not compiled.available(),
                        reason="no C compiler for the compiled engine")
    def test_compiled_counts(self):
        # The per-lane C loop is the reference's single-pop descent: the
        # same pops, pushes and leaf work; a warp is charged its slowest
        # lane, which is what the lock-step reference charges too.  Box
        # bounds are remembered on the stack (root + 2 per expansion).
        c = self._count(build_bvh(_grid16()), "compiled")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (136, 256, 256, 48, 48, 136, 10)
        seeded = CostCounters()
        bvh = build_bvh(_grid16())
        batched_nearest(bvh, bvh.points, engine="compiled",
                        exclude_position=np.arange(16), counters=seeded,
                        self_queries=True)
        assert seeded == c  # self-queries descend from the root

    def test_blocked_leaves_counts(self, monkeypatch):
        # leaf_size=4: a quarter of the leaves, whole-block evaluation.
        monkeypatch.setattr(wavefront, "DEFAULT_WIDTH", 2)
        c = self._count(build_bvh(_grid16(), leaf_size=4), "wavefront")
        assert (c.nodes_visited, c.stack_ops, c.box_distance_evals,
                c.distance_evals, c.leaf_visits, c.lane_steps,
                c.warp_steps) == (48, 80, 112, 240, 64, 32, 2)

    def test_emst_round_counters_populated(self):
        # RoundStats survive the new kernels (used by the figure benches).
        result = emst(np.random.default_rng(0).random((256, 2)))
        for r in result.rounds:
            assert r.nodes_visited > 0
            assert r.warp_steps > 0
            assert r.lane_steps >= r.warp_steps


class TestWorkspace:
    def test_stack_reuse_across_launches(self):
        rng = np.random.default_rng(1)
        bvh = build_bvh(rng.random((300, 3)))
        ws = TraversalWorkspace()
        batched_knn(bvh, bvh.points, 4, workspace=ws, engine="wavefront")
        allocations = ws.allocations
        for _ in range(3):
            batched_knn(bvh, bvh.points, 4, workspace=ws,
                        engine="wavefront")
        assert ws.allocations == allocations  # steady state: no reallocs
        assert ws.nbytes > 0

    def test_take_grows_and_reuses(self):
        ws = TraversalWorkspace()
        a = ws.take("x", 100)
        before = ws.allocations
        b = ws.take("x", 50)
        assert ws.allocations == before  # served from the same buffer
        assert b.base is a.base or b.base is a  # same arena memory
        ws.take("x", 10_000)
        assert ws.allocations == before + 1

    def test_emst_accepts_shared_workspace(self):
        rng = np.random.default_rng(2)
        pts = rng.random((200, 2))
        ws = TraversalWorkspace()
        first = emst(pts, workspace=ws)
        second = emst(pts, workspace=ws)
        assert np.array_equal(first.edges, second.edges)

    def test_plan_cached_per_tree(self):
        rng = np.random.default_rng(3)
        ws = TraversalWorkspace()
        bvh_a = build_bvh(rng.random((64, 2)))
        plan_a, built_a = ws.plan_for(bvh_a)
        plan_a2, built_a2 = ws.plan_for(bvh_a)
        assert built_a and not built_a2 and plan_a is plan_a2
        bvh_b = build_bvh(rng.random((64, 2)))
        _, built_b = ws.plan_for(bvh_b)
        assert built_b  # different tree -> new plan


class TestQueryPlan:
    def test_path_siblings_partition_tree(self):
        rng = np.random.default_rng(5)
        bvh = build_bvh(rng.random((37, 2)))
        plan = build_query_plan(bvh)
        for lane in (0, 17, 36):
            nodes = [int(x) for x in plan.sib_nodes[lane] if x >= 0]
            # Own leaf is the last column.
            assert nodes[-1] >= bvh.leaf_base
            # The union of all subtree leaves is every sorted position.
            seen = []
            for node in nodes:
                stack = [node]
                while stack:
                    x = stack.pop()
                    if x >= bvh.leaf_base:
                        block = x - bvh.leaf_base
                        start = int(bvh.leaf_start[block])
                        seen.extend(range(start,
                                          start + int(bvh.leaf_count[block])))
                    else:
                        stack.extend([int(bvh.left[x]), int(bvh.right[x])])
            assert sorted(seen) == list(range(bvh.n))

    def test_self_queries_requires_full_batch(self):
        rng = np.random.default_rng(6)
        bvh = build_bvh(rng.random((50, 2)))
        with pytest.raises(InvalidInputError):
            batched_nearest(bvh, bvh.points[:10], engine="wavefront",
                            self_queries=True)


def _valid_constraints(bvh):
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 3, size=bvh.n)
    core = rng.random(bvh.n) * 0.05
    return dict(query_labels=labels, node_labels=reduce_labels(bvh, labels),
                point_labels=labels, init_radius_sq=np.full(bvh.n, 0.3),
                query_ids=bvh.order, point_ids=bvh.order,
                query_core_sq=core, point_core_sq=core,
                exclude_position=np.arange(bvh.n))


class TestInputValidation:
    """Mis-shaped or mis-typed optional arrays are typed input errors on
    every engine — never an ``IndexError`` or an out-of-bounds read."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", [
        "query_labels", "node_labels", "point_labels", "init_radius_sq",
        "query_ids", "point_ids", "query_core_sq", "point_core_sq",
        "exclude_position"])
    def test_short_array_rejected(self, engine, name):
        bvh = build_bvh(np.random.default_rng(9).random((30, 2)))
        kwargs = _valid_constraints(bvh)
        kwargs[name] = kwargs[name][:-1]
        with pytest.raises(InvalidInputError, match=name):
            batched_nearest(bvh, bvh.points, engine=engine, **kwargs)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name,bad", [
        ("query_labels", lambda a: a.astype(np.float64)),
        ("exclude_position", lambda a: a.astype(np.float64)),
        ("query_core_sq", lambda a: a.astype(str)),
        ("node_labels", lambda a: a.reshape(1, -1)),
    ])
    def test_wrong_dtype_or_rank_rejected(self, engine, name, bad):
        bvh = build_bvh(np.random.default_rng(9).random((30, 2)))
        kwargs = _valid_constraints(bvh)
        kwargs[name] = bad(kwargs[name])
        with pytest.raises(InvalidInputError, match=name):
            batched_nearest(bvh, bvh.points, engine=engine, **kwargs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_knn_short_exclusion_rejected(self, engine):
        bvh = build_bvh(np.random.default_rng(9).random((30, 2)))
        with pytest.raises(InvalidInputError, match="exclude_position"):
            batched_knn(bvh, bvh.points, 3, engine=engine,
                        exclude_position=np.arange(bvh.n - 1))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_missing_partner_rejected(self, engine):
        bvh = build_bvh(np.random.default_rng(9).random((30, 2)))
        kwargs = _valid_constraints(bvh)
        del kwargs["point_core_sq"]
        with pytest.raises(InvalidInputError, match="point_core_sq"):
            batched_nearest(bvh, bvh.points, engine=engine, **kwargs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_caller_radius_not_mutated(self, engine):
        bvh = build_bvh(np.random.default_rng(9).random((30, 2)))
        radius = np.full(bvh.n, 0.3)
        batched_nearest(bvh, bvh.points, engine=engine,
                        init_radius_sq=radius,
                        exclude_position=np.arange(bvh.n))
        assert np.all(radius == 0.3)
