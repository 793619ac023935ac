/*
 * Compiled per-lane traversal kernels: nearest and k-nearest neighbors.
 *
 * Each query lane walks the BVH on its own with a private stack of
 * (node, box lower bound) entries -- the one-thread-per-query loop of
 * the paper's GPU kernels, run lane after lane.  The tree arrives in the
 * flat layout of repro.bvh.BVH: internal nodes 0 .. leaf_base - 1 with
 * children in left/right, leaf block j at node leaf_base + j covering
 * sorted positions leaf_start[j] .. leaf_start[j] + leaf_count[j] - 1.
 *
 * Float contract (compile with -ffp-contract=off, no -ffast-math): every
 * squared distance is summed left to right from the first term, and every
 * max propagates NaN, so each value equals NumPy's np.sum(d * d, axis=-1)
 * and np.maximum bit for bit.  Inclusive pruning at an initial radius then
 * makes the same decisions as the NumPy engines.
 *
 * Safety: no global state (concurrent calls are independent), the stack
 * is bounds-checked against its capacity, and child / leaf indices read
 * from the tree are range-checked; a violation returns an error code and
 * never reads or writes out of bounds.
 */

#include <math.h>
#include <stdint.h>

#define REPRO_OK 0
#define REPRO_STACK_OVERFLOW 1
#define REPRO_BAD_TREE 2

#define WARP_SIZE 32
#define NO_KEY UINT64_MAX

/* Counter slots written back to CostCounters by the Python wrapper. */
enum {
    C_POPS,
    C_PUSHES,
    C_BOX_EVALS,
    C_DISTANCE_EVALS,
    C_LEAF_VISITS,
    C_WARP_STEPS,
    C_COUNT
};

typedef struct {
    int64_t n;          /* indexed points */
    int64_t dim;
    int64_t leaf_base;  /* node id of leaf block 0 (0: the root is a leaf) */
    const double *points;   /* (n, dim), sorted order */
    const double *lo;       /* (n_nodes, dim) */
    const double *hi;       /* (n_nodes, dim) */
    const int64_t *left;    /* (leaf_base,) */
    const int64_t *right;   /* (leaf_base,) */
    const int64_t *leaf_start;  /* (leaf_base + 1,) */
    const int64_t *leaf_count;  /* (leaf_base + 1,) */
} Tree;

typedef struct {
    int64_t capacity;
    int64_t *node;
    double *bound;
} Stack;

/* np.maximum: NaN in either argument wins. */
static inline double nan_max(double a, double b)
{
    return (a != a || a >= b) ? a : b;
}

static inline double point_sq(const double *q, const double *p, int64_t dim)
{
    double t = q[0] - p[0];
    double s = t * t;
    for (int64_t j = 1; j < dim; ++j) {
        t = q[j] - p[j];
        s += t * t;
    }
    return s;
}

static inline double box_sq(const double *q, const Tree *t, int64_t node,
                     int64_t dim)
{
    const double *lo = t->lo + node * dim;
    const double *hi = t->hi + node * dim;
    double s = 0.0;
    for (int64_t j = 0; j < dim; ++j) {
        double g = nan_max(nan_max(lo[j] - q[j], q[j] - hi[j]), 0.0);
        s = j ? s + g * g : g * g;
    }
    return s;
}

static inline int valid_child(const Tree *t, int64_t c)
{
    return c > 0 && c < 2 * t->leaf_base + 1;
}

static inline int valid_block(const Tree *t, int64_t block)
{
    int64_t start = t->leaf_start[block];
    int64_t count = t->leaf_count[block];
    return start >= 0 && count >= 1 && start <= t->n - count;
}

/* A single-point leaf holding exactly the excluded position is skipped
 * at the node level (blocked leaves exclude per point instead). */
static inline int leaf_excluded(const Tree *t, int64_t node, int64_t excl)
{
    int64_t block = node - t->leaf_base;
    return t->leaf_count[block] == 1 && t->leaf_start[block] == excl;
}

static inline void end_lane(int64_t lane, int64_t pops, int64_t *warp_max,
                            int64_t batch, int64_t *counters)
{
    if (pops > *warp_max)
        *warp_max = pops;
    if (lane % WARP_SIZE == WARP_SIZE - 1 || lane == batch - 1) {
        counters[C_WARP_STEPS] += *warp_max;
        *warp_max = 0;
    }
}

/* ------------------------------------------------------------ nearest */

typedef struct {
    const double *q;
    int use_labels, use_mrd, use_keys, use_excl;
    int64_t label;
    double core;
    uint64_t id;
    int64_t excl;
    const int64_t *point_labels;
    const double *point_core;
    const int64_t *point_ids;
    /* running best and cutoff */
    double radius, best_sq;
    int64_t best_pos;
    uint64_t best_key;
} NearestLane;

static inline void nearest_leaf(const Tree *t, NearestLane *ln, int64_t node,
                         int64_t *counters, int64_t dim)
{
    int64_t block = node - t->leaf_base;
    int64_t start = t->leaf_start[block];
    int64_t end = start + t->leaf_count[block];
    counters[C_LEAF_VISITS] += 1;
    for (int64_t p = start; p < end; ++p) {
        if (ln->use_labels && ln->point_labels[p] == ln->label)
            continue;
        if (ln->use_excl && p == ln->excl)
            continue;
        double d = point_sq(ln->q, t->points + p * dim, dim);
        if (ln->use_mrd)
            d = nan_max(nan_max(d, ln->core), ln->point_core[p]);
        counters[C_DISTANCE_EVALS] += 1;
        if (!(d <= ln->radius))
            continue;
        /* Minimize (distance, pair key); unkeyed ties keep the smallest
         * sorted position.  Both are total orders, so the answer does
         * not depend on the visit order. */
        if (ln->use_keys) {
            uint64_t other = (uint64_t)ln->point_ids[p];
            uint64_t lo = ln->id < other ? ln->id : other;
            uint64_t hi = ln->id < other ? other : ln->id;
            uint64_t key = (lo << 32) | hi;
            if (!(d < ln->best_sq
                  || (d == ln->best_sq && key < ln->best_key)))
                continue;
            ln->best_key = key;
        } else if (!(d < ln->best_sq
                     || (d == ln->best_sq && ln->best_pos >= 0
                         && p < ln->best_pos))) {
            continue;
        }
        ln->best_sq = d;
        ln->best_pos = p;
        ln->radius = d;
    }
}

int repro_nearest(
    const Tree *t, int64_t batch, const double *queries,
    const int64_t *query_labels, const int64_t *node_labels,
    const int64_t *point_labels, const double *init_radius_sq,
    const int64_t *query_ids, const int64_t *point_ids,
    const double *query_core_sq, const double *point_core_sq,
    const int64_t *exclude_position, Stack *st,
    int64_t *out_position, double *out_distance_sq, uint64_t *out_key,
    int64_t *counters)
{
    const int64_t dim = t->dim;
    /* Local copies: stores through the output pointers cannot alias
     * them, so the tree fields, stack and counters stay in registers. */
    const Tree tree = *t;
    int64_t *const snode = st->node;
    double *const sbound = st->bound;
    const int64_t capacity = st->capacity;
    int64_t cnt[C_COUNT] = {0};
    t = &tree;
    const int64_t leaf_base = t->leaf_base;
    int64_t warp_max = 0;
    for (int64_t i = 0; i < batch; ++i) {
        NearestLane ln = {
            .q = queries + i * dim,
            .use_labels = query_labels != 0,
            .use_mrd = query_core_sq != 0,
            .use_keys = query_ids != 0,
            .use_excl = exclude_position != 0,
            .label = query_labels ? query_labels[i] : 0,
            .core = query_core_sq ? query_core_sq[i] : 0.0,
            .id = query_ids ? (uint64_t)query_ids[i] : 0,
            .excl = exclude_position ? exclude_position[i] : -1,
            .point_labels = point_labels,
            .point_core = point_core_sq,
            .point_ids = point_ids,
            .radius = init_radius_sq ? init_radius_sq[i] : INFINITY,
            .best_sq = INFINITY,
            .best_pos = -1,
            .best_key = NO_KEY,
        };
        int64_t pops = 0;
        /* A lane whose component spans the whole tree has nothing to find. */
        int skip = ln.use_labels && node_labels[0] == ln.label;
        if (!skip && leaf_base == 0) {
            if (!valid_block(t, 0))
                return REPRO_BAD_TREE;
            nearest_leaf(t, &ln, 0, cnt, dim);
        } else if (!skip) {
            int64_t sp = 0;
            snode[sp] = 0;
            sbound[sp++] = box_sq(ln.q, t, 0, dim);
            cnt[C_BOX_EVALS] += 1;
            while (sp > 0) {
                --sp;
                int64_t node = snode[sp];
                /* Only internal nodes are pushed, each at most once per
                 * lane in a tree; more pops means a cycle. */
                if (++pops > leaf_base)
                    return REPRO_BAD_TREE;
                /* Re-test against the radius as it is now (Algorithm 2,
                 * line 9), on the bound remembered at push time. */
                if (!(sbound[sp] <= ln.radius))
                    continue;
                int64_t child[2] = {t->left[node], t->right[node]};
                double bound[2];
                int ok[2];
                for (int c = 0; c < 2; ++c) {
                    if (!valid_child(t, child[c]))
                        return REPRO_BAD_TREE;
                    bound[c] = box_sq(ln.q, t, child[c], dim);
                    double test = ln.use_mrd ? nan_max(bound[c], ln.core)
                                             : bound[c];
                    ok[c] = test <= ln.radius;
                    if (ln.use_labels && node_labels[child[c]] == ln.label)
                        ok[c] = 0;
                    if (ok[c] && child[c] >= leaf_base) {
                        if (!valid_block(t, child[c] - leaf_base))
                            return REPRO_BAD_TREE;
                        if (ln.use_excl && leaf_excluded(t, child[c], ln.excl))
                            ok[c] = 0;
                    }
                }
                cnt[C_BOX_EVALS] += 2;
                for (int c = 0; c < 2; ++c)
                    if (ok[c] && child[c] >= leaf_base)
                        nearest_leaf(t, &ln, child[c], cnt, dim);
                /* Push the far internal child first so the near one pops
                 * next (best-first descent). */
                int near = bound[0] <= bound[1] ? 0 : 1;
                int order[2] = {1 - near, near};
                for (int o = 0; o < 2; ++o) {
                    int c = order[o];
                    if (!ok[c] || child[c] >= leaf_base)
                        continue;
                    if (sp >= capacity)
                        return REPRO_STACK_OVERFLOW;
                    snode[sp] = child[c];
                    sbound[sp++] = bound[c];
                    cnt[C_PUSHES] += 1;
                }
            }
        }
        cnt[C_POPS] += pops;
        end_lane(i, pops, &warp_max, batch, cnt);
        out_position[i] = ln.best_pos;
        out_distance_sq[i] = ln.best_sq;
        out_key[i] = ln.best_key;
    }
    for (int c = 0; c < C_COUNT; ++c)
        counters[c] += cnt[c];
    return REPRO_OK;
}

/* ---------------------------------------------------------------- knn */

/* Insert (d, p) into the ascending k-list if strictly better than its
 * last entry; existing entries keep exact ties. */
static inline void knn_leaf(const Tree *t, const double *q, int64_t node,
                     int use_excl, int64_t excl, int64_t k,
                     double *kd, int64_t *kp, int64_t *counters, int64_t dim)
{
    int64_t block = node - t->leaf_base;
    int64_t start = t->leaf_start[block];
    int64_t end = start + t->leaf_count[block];
    counters[C_LEAF_VISITS] += 1;
    for (int64_t p = start; p < end; ++p) {
        if (use_excl && p == excl)
            continue;
        double d = point_sq(q, t->points + p * dim, dim);
        counters[C_DISTANCE_EVALS] += 1;
        if (!(d < kd[k - 1]))
            continue;
        int64_t j = k - 1;
        while (j > 0 && kd[j - 1] > d) {
            kd[j] = kd[j - 1];
            kp[j] = kp[j - 1];
            --j;
        }
        kd[j] = d;
        kp[j] = p;
    }
}

int repro_knn(
    const Tree *t, int64_t batch, const double *queries, int64_t k,
    const int64_t *exclude_position, Stack *st,
    int64_t *out_positions, double *out_distance_sq, int64_t *counters)
{
    const int64_t dim = t->dim;
    /* Local copies: stores through the output pointers cannot alias
     * them, so the tree fields, stack and counters stay in registers. */
    const Tree tree = *t;
    int64_t *const snode = st->node;
    double *const sbound = st->bound;
    const int64_t capacity = st->capacity;
    int64_t cnt[C_COUNT] = {0};
    t = &tree;
    const int64_t leaf_base = t->leaf_base;
    const int use_excl = exclude_position != 0;
    int64_t warp_max = 0;
    for (int64_t i = 0; i < batch; ++i) {
        const double *q = queries + i * dim;
        const int64_t excl = use_excl ? exclude_position[i] : -1;
        double *kd = out_distance_sq + i * k;
        int64_t *kp = out_positions + i * k;
        for (int64_t j = 0; j < k; ++j) {
            kd[j] = INFINITY;
            kp[j] = -1;
        }
        int64_t pops = 0;
        if (leaf_base == 0) {
            if (!valid_block(t, 0))
                return REPRO_BAD_TREE;
            knn_leaf(t, q, 0, use_excl, excl, k, kd, kp, cnt, dim);
        } else {
            int64_t sp = 0;
            snode[sp] = 0;
            sbound[sp++] = box_sq(q, t, 0, dim);
            cnt[C_BOX_EVALS] += 1;
            while (sp > 0) {
                --sp;
                int64_t node = snode[sp];
                /* Only internal nodes are pushed, each at most once per
                 * lane in a tree; more pops means a cycle. */
                if (++pops > leaf_base)
                    return REPRO_BAD_TREE;
                if (!(sbound[sp] <= kd[k - 1]))
                    continue;
                int64_t child[2] = {t->left[node], t->right[node]};
                double bound[2];
                int ok[2];
                for (int c = 0; c < 2; ++c) {
                    if (!valid_child(t, child[c]))
                        return REPRO_BAD_TREE;
                    bound[c] = box_sq(q, t, child[c], dim);
                    ok[c] = bound[c] <= kd[k - 1];
                    if (ok[c] && child[c] >= leaf_base) {
                        if (!valid_block(t, child[c] - leaf_base))
                            return REPRO_BAD_TREE;
                        if (use_excl && leaf_excluded(t, child[c], excl))
                            ok[c] = 0;
                    }
                }
                cnt[C_BOX_EVALS] += 2;
                for (int c = 0; c < 2; ++c)
                    if (ok[c] && child[c] >= leaf_base)
                        knn_leaf(t, q, child[c], use_excl, excl, k, kd, kp,
                                 cnt, dim);
                int near = bound[0] <= bound[1] ? 0 : 1;
                int order[2] = {1 - near, near};
                for (int o = 0; o < 2; ++o) {
                    int c = order[o];
                    if (!ok[c] || child[c] >= leaf_base)
                        continue;
                    if (sp >= capacity)
                        return REPRO_STACK_OVERFLOW;
                    snode[sp] = child[c];
                    sbound[sp++] = bound[c];
                    cnt[C_PUSHES] += 1;
                }
            }
        }
        cnt[C_POPS] += pops;
        end_lane(i, pops, &warp_max, batch, cnt);
    }
    for (int c = 0; c < C_COUNT; ++c)
        counters[c] += cnt[c];
    return REPRO_OK;
}
