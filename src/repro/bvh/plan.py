"""Per-tree query plans: precomputed root paths for self-queries.

Every Borůvka round — and the core-distance k-NN — issues the *same*
query batch: the indexed points themselves, one lane per sorted position.
A top-down traversal re-derives, round after round, the one thing that
never changes: the lane's root-to-leaf path and the geometry of the
subtrees hanging off it.

A :class:`QueryPlan` computes that once per tree.  For sorted position
``i`` it records, per path level, the *sibling* subtree hanging off the
``i``-th leaf's ancestor chain together with its point-box lower bound.
The path siblings plus the lane's own leaf partition the whole tree, so
seeding a traversal stack with exactly the admissible siblings (bound
``<=`` radius, component label differs) is equivalent to a full top-down
traversal — every pruning test the descent would have applied to those
nodes is applied by the seed filter or by the pop re-test, on identical
float values.  What disappears is the per-round rediscovery of the path:
each wavefront launch starts with one vectorized ``(n, depth)`` filter
instead of popping through the top levels of the tree ``n`` lanes wide.

Plans are cached on the :class:`~repro.bvh.workspace.TraversalWorkspace`
keyed by the tree's identity token, so one plan serves all rounds of an
EMST run and the core-distance pass over the same tree.  Only the
``wavefront`` engine uses them; the default ``compiled`` engine descends
from the root and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.bvh import BVH
from repro.geometry.distance import point_box_sq


@dataclass
class QueryPlan:
    """Precomputed path siblings for the self-query batch of one tree.

    ``sib_nodes[i, c]`` is the node id of the sibling subtree at path
    level ``c`` of sorted position ``i`` (columns ordered root-side
    first; -1 pads lanes with shorter paths), and the **last** column is
    the lane's own leaf.  ``sib_dist[i, c]`` is the corresponding
    point-box squared lower bound (``inf`` at pads, 0 at the own-leaf
    column).  Seeding pushes columns left to right, so the deepest —
    nearest — subtrees end on top of the stack and are drained first.
    """

    sib_nodes: np.ndarray
    sib_dist: np.ndarray
    #: ``sib_nodes >= 0`` (pads excluded), precomputed for the per-round
    #: admissibility filter.
    valid: np.ndarray
    #: ``maximum(sib_nodes, 0)`` — gather-safe node ids for label lookups.
    safe_nodes: np.ndarray
    #: Box distance evaluations performed to build the plan (charged to
    #: the counters of the kernel launch that built it).
    build_box_evals: int

    @property
    def depth(self) -> int:
        """Number of plan columns (max path length + own leaf)."""
        return self.sib_nodes.shape[1]


def build_query_plan(bvh: BVH) -> QueryPlan:
    """Compute the :class:`QueryPlan` of ``bvh`` (requires ``>=2`` leaves)."""
    n = bvh.n
    leaf_base = bvh.leaf_base
    parent = bvh.parent
    left = bvh.left
    # Leaf node id of every sorted position.
    block_of = np.searchsorted(bvh.leaf_start,
                               np.arange(n, dtype=np.int64), side="right") - 1
    own_leaf = leaf_base + block_of

    # Walk the ancestor chain of every lane in lock-step, collecting the
    # off-path sibling at each level (leaf-side first, reversed below).
    columns = []
    cur = own_leaf
    while True:
        par = parent[cur]
        live = par >= 0
        if not np.any(live):
            break
        par_safe = np.maximum(par, 0)
        sibling = left[par_safe] + bvh.right[par_safe] - cur  # the other child
        columns.append(np.where(live, sibling, -1))
        cur = np.where(live, par_safe, cur)

    columns.reverse()  # root-side siblings first
    depth = len(columns) + 1
    sib_nodes = np.full((n, depth), -1, dtype=np.int64)
    for c, col in enumerate(columns):
        sib_nodes[:, c] = col
    sib_nodes[:, -1] = own_leaf

    sib_dist = np.full((n, depth), np.inf)
    valid = sib_nodes >= 0
    lane_idx, col_idx = np.nonzero(valid)
    nodes = sib_nodes[lane_idx, col_idx]
    sib_dist[lane_idx, col_idx] = point_box_sq(
        bvh.points[lane_idx], bvh.lo[nodes], bvh.hi[nodes])
    return QueryPlan(sib_nodes=sib_nodes, sib_dist=sib_dist,
                     valid=valid, safe_nodes=np.maximum(sib_nodes, 0),
                     build_box_evals=int(lane_idx.size))
