import logging
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from streamreid.pseudo import (EPS_BLOCK_ROWS, ClusterAssignment, HybridMemory,
                               LabelGroups, OUTLIER, _choice_bounds,
                               _choice_from_draws, _distance_slabs, _eps_threshold,
                               _percentile_of_lowest, _tail_shuffled,
                               _unit_means, _upper_pairs, contrastive_loss,
                               cross_entropy_loss, dbscan, demote_small_clusters,
                               eps_neighbours, expand_clusters, pk_batches,
                               rebuild_memory, sq_distances, triplet_loss)
from streamreid.pseudo import unit_rows as unit_features
from tests.conftest import (CFG, fd_gradient, identity_extractor, make_dataset,
                            max_rel_error)


def unit(features):
    return unit_features(np.asarray(features, dtype=np.float64), "feature")[0]


def slab_distances(features):
    """The whole cosine distance matrix, its upper triangle from dbscan's
    own slab kernel and mirrored below the diagonal."""
    u = unit(features)
    n = u.shape[0]
    dist = np.empty((n, n))
    for lo, slab in _distance_slabs(u):
        dist[lo:lo + slab.shape[0], lo:] = slab
    lower = np.tril_indices(n, -1)
    dist[lower] = dist.T[lower]
    return dist


# sizes around the first two slab edges: one-row tails among them
SLAB_EDGES = [e + d for e in (EPS_BLOCK_ROWS, 2 * EPS_BLOCK_ROWS) for d in (-1, 0, 1, 2)]


def pairs_within(dist, eps):
    """The flat positions i*n + j (i < j, ascending) of a distance matrix's
    pairs within eps, and whether each point is within eps of itself."""
    within = dist <= eps
    return np.flatnonzero(np.triu(within, 1)), np.diagonal(within)


def cluster_at(features, eps, min_pts):
    """The cluster step on the brute-force matrix's pairs within eps."""
    pairs, self_within = pairs_within(slab_distances(features), eps)
    return expand_clusters(len(features), pairs, self_within, min_pts)


def triangle(dist):
    """The strict upper triangle, row by row."""
    return dist[np.triu_indices(dist.shape[0], 1)]


def axis_groups(groups, n=128, width=8):
    """n random rows, but the rows of groups[a] all hold the axis vector
    e_a, so the pairs within a group are exactly 0 apart."""
    feats = np.random.default_rng(5).standard_normal((n, width))
    for axis, rows in enumerate(groups):
        feats[list(rows)] = np.eye(width)[axis]
    return feats


# ---------------------------------------------------------------------------
# Reference DBSCAN: union-find over core points, declarative border rule.
# Deliberately structured unlike the production scan-and-expand version.
# ---------------------------------------------------------------------------

def reference_dbscan(features, eps, min_pts):
    dist = slab_distances(features)
    n = dist.shape[0]
    neighbor = [set(np.flatnonzero(dist[i] <= eps).tolist()) for i in range(n)]
    core = [len(neighbor[i]) >= min_pts for i in range(n)]

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in neighbor[i]:
            if core[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    # number components by their smallest core index
    roots = sorted({find(i) for i in range(n) if core[i]})
    comp_id = {r: c for c, r in enumerate(roots)}
    labels = np.full(n, OUTLIER, dtype=np.int64)
    for i in range(n):
        if core[i]:
            labels[i] = comp_id[find(i)]
    for i in range(n):
        if core[i]:
            continue
        adjacent = [labels[j] for j in neighbor[i] if core[j]]
        if adjacent:
            labels[i] = min(adjacent)
    return labels, len(roots)


def same_partition(labels_a, labels_b):
    """Equality up to cluster renumbering, outliers matched exactly."""
    if np.any((labels_a == OUTLIER) != (labels_b == OUTLIER)):
        return False
    mapping = {}
    for a, b in zip(labels_a, labels_b):
        if a == OUTLIER:
            continue
        if mapping.setdefault(a, b) != b:
            return False
    return len(set(mapping.values())) == len(mapping)


def directions(angles):
    """Unit vectors on the circle; cosine distance = 1 - cos(angle gap)."""
    a = np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(a), np.sin(a)], axis=1)


class TestDbscan:
    def test_textbook_three_plus_one(self):
        feats = directions([0.0, 0.02, 0.04, np.pi / 2])
        labels, n_clusters = cluster_at(feats, 0.01, min_pts=2)
        assert n_clusters == 1
        assert labels.tolist() == [0, 0, 0, OUTLIER]

    def test_all_identical_points_single_cluster(self):
        feats = np.tile([0.3, 0.4], (6, 1))
        labels, n_clusters = cluster_at(feats, 0.5, min_pts=4)
        assert n_clusters == 1
        assert (labels == 0).all()

    def test_matches_reference_on_random_instances(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            feats = rng.standard_normal((120, 5))
            percentile, min_pts = float(rng.uniform(2, 15)), int(rng.integers(2, 6))
            out = dbscan(feats, percentile, min_pts)
            ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, min_pts)
            assert out.n_clusters == ref_n
            assert same_partition(out.labels, ref_labels)
            # canonical numbering by first-core order also matches exactly
            assert np.array_equal(out.labels, ref_labels)

    def test_single_giant_cluster_matches_reference(self):
        # a wide eps chains every point into one cluster, as adaptive eps
        # does on large tasks; borders and the lone outlier must agree too
        rng = np.random.default_rng(23)
        feats = np.vstack([rng.standard_normal((200, 6)) + 4.0, -np.ones((1, 6))])
        out = dbscan(feats, 40.0, 5)
        ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, 5)
        assert out.n_clusters == ref_n == 1
        assert np.array_equal(out.labels, ref_labels)
        assert out.labels[-1] == OUTLIER

    def test_contested_border_joins_earliest_cluster(self):
        # the border point at 0.05 rad is within eps of one core of each
        # cluster but is not a core itself; the first-created cluster keeps it
        a = [0.0, 0.003, 0.006, 0.009]
        b = [0.091, 0.094, 0.097, 0.1]
        eps = 1.0 - np.cos(0.042)
        for angles in (a + [0.05] + b, b + [0.05] + a):
            feats = directions(angles)
            labels, n_clusters = cluster_at(feats, eps, min_pts=4)
            ref_labels, ref_n = reference_dbscan(feats, eps, 4)
            assert n_clusters == ref_n == 2
            assert np.array_equal(labels, ref_labels)
            assert labels[4] == 0

    def test_min_pts_one_matches_reference(self):
        # every point is core, so no outliers: isolated points are singletons
        for seed in range(5):
            rng = np.random.default_rng(30 + seed)
            feats = rng.standard_normal((80, 4))
            out = dbscan(feats, 3.0, 1)
            ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, 1)
            assert out.n_clusters == ref_n
            assert np.array_equal(out.labels, ref_labels)
            assert not np.any(out.labels == OUTLIER)

    @pytest.mark.parametrize("angles, eps, min_pts, want", [
        # no pair within eps: every point alone
        ([0, 1, 2, 3], 0.1, 1, [0, 1, 2, 3]),
        ([0, 1, 2, 3], 0.1, 2, [OUTLIER] * 4),
        # every pair within eps (cosine distances lie in [0, 2]): one cluster
        ([0, 1, 2, 3], 2.0, 4, [0] * 4),
        ([0, 1, 2, 3], 2.0, 5, [OUTLIER] * 4),
        # duplicate points, not next to each other
        ([0, 1, 0, 2, 1, 0], 0.01, 2, [0, 1, 0, OUTLIER, 1, 0]),
        ([0, 1, 0, 2, 1, 0], 0.01, 3, [0, OUTLIER, 0, OUTLIER, OUTLIER, 0]),
        # one point
        ([0.5], 0.1, 1, [0]),
        ([0.5], 0.1, 2, [OUTLIER]),
    ])
    def test_cluster_step_corners_match_reference(self, angles, eps, min_pts, want):
        feats = directions(angles)
        labels, n_clusters = cluster_at(feats, eps, min_pts)
        ref_labels, ref_n = reference_dbscan(feats, eps, min_pts)
        assert labels.tolist() == ref_labels.tolist() == want
        assert n_clusters == ref_n == len(set(want) - {OUTLIER})

    def test_adaptive_eps_is_percentile_of_upper_triangle(self):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((30, 4))
        out = dbscan(feats, 10.0, 3)
        assert out.eps_resolved == pytest.approx(
            np.percentile(triangle(slab_distances(feats)), 10.0), abs=0)

    @pytest.mark.parametrize("n", [2, 3, 50, 301])
    def test_adaptive_eps_equals_triu_percentile_bitwise(self, n):
        # and the neighbour step keeps exactly the brute-force pairs within it.
        # At 1,200 points and percentile 8, np.percentile over the triangle
        # took 10.7-15.2 ms and the partition of the sampled candidates
        # 4.9-8.2 ms (OpenBLAS on one thread, a shared 2-core x86 machine,
        # ranges over repeats)
        rng = np.random.default_rng(n)
        feats = rng.standard_normal((n, 5))
        feats[n // 2] = feats[0]                 # a zero distance and ties
        dist = slab_distances(feats)
        values = triangle(dist)
        for q in (0.5, 2.0, 8.0, 37.5, 99.0):
            got = dbscan(feats, q, CFG.dbscan_min_pts).eps_resolved
            assert got == float(np.percentile(values, q))
            eps, self_within, pairs = eps_neighbours(unit(feats), q)
            want_pairs, want_self = pairs_within(dist, got)
            assert eps == got
            assert np.array_equal(self_within, want_self)
            assert np.array_equal(pairs, want_pairs)

    @pytest.mark.parametrize("n", [2, 3, 40, 700, 1300])
    def test_eps_bytes_match_percentile_near_0_50_100(self, n):
        rng = np.random.default_rng(n + 7)
        feats = rng.standard_normal((n, 6))
        feats[1::9] = feats[0]                   # zero distances and ties
        values = triangle(slab_distances(feats))
        for q in (1e-9, 0.01, 0.3, 2.0, 49.99, 50.0, 50.01, 97.0, 99.99, 100 - 1e-9):
            expected = np.float64(np.percentile(values, q)).tobytes()
            got = dbscan(feats, q, CFG.dbscan_min_pts).eps_resolved
            assert np.float64(got).tobytes() == expected, q

    @pytest.mark.parametrize("n", [72, 1200])
    def test_slabs_carry_the_full_products_bits(self, n):
        # the task sizes of the shipped configs, at their feature width:
        # every slab's upper part, diagonal included, is the full product's
        u = unit(np.random.default_rng(n).standard_normal((n, 32)))
        full = u @ u.T
        np.subtract(1.0, full, out=full)
        np.clip(full, 0.0, None, out=full)
        for lo, slab in _distance_slabs(u):
            on_or_right = np.triu(np.ones(slab.shape, dtype=bool))
            want = full[lo:lo + slab.shape[0], lo:][on_or_right]
            assert slab[on_or_right].tobytes() == want.tobytes(), lo

    @pytest.mark.parametrize("n", [1, 2, 3, *SLAB_EDGES, 1300])
    def test_slabs_tile_the_upper_triangle(self, n):
        # aligned starts, every column right of the start, and no one-row
        # slab but the only one of n = 1
        u = unit(np.random.default_rng(n).standard_normal((n, 6)))
        full = np.maximum(1.0 - u @ u.T, 0.0)
        at = 0
        for lo, slab in _distance_slabs(u):
            h = slab.shape[0]
            assert lo == at and lo % EPS_BLOCK_ROWS == 0
            assert slab.shape[1] == n - lo and (h > 1 or n == 1)
            assert h == EPS_BLOCK_ROWS or lo + h == n
            assert np.allclose(slab, full[lo:lo + h, lo:], rtol=0, atol=1e-12)
            at = lo + h
        assert at == n

    @pytest.mark.parametrize("n", [1, 2, *SLAB_EDGES, 1300])
    def test_upper_pairs_hold_the_strict_upper_triangle_in_row_order(self, n):
        # every pair i < j once, in row-major order, with the slab's bits;
        # a threshold keeps exactly the pairs at or below it
        feats = np.random.default_rng(n).standard_normal((n, 6))
        feats[1::9] = feats[0]                   # zero distances and ties
        dist = slab_distances(feats)
        rows, cols = np.triu_indices(n, 1)
        flat, values = rows * n + cols, dist[rows, cols]
        u = unit(feats)
        got_diag, got_pairs, got_values = _upper_pairs(u, math.inf)
        assert got_diag.tobytes() == np.diagonal(dist).tobytes()
        assert np.array_equal(got_pairs, flat)
        assert got_values.tobytes() == values.tobytes()
        for t in (0.0, float(np.median(values)) if n > 1 else 1.0):
            _, got_pairs, got_values = _upper_pairs(u, t)
            near = values <= t
            assert np.array_equal(got_pairs, flat[near])
            assert got_values.tobytes() == values[near].tobytes()

    @pytest.mark.parametrize("n", [700, 1300])
    def test_eps_reads_sampled_candidates(self, n):
        # at these sizes the candidates, not the whole triangle, serve
        # every percentile up to 50
        u = unit(np.random.default_rng(n).standard_normal((n, 8)))
        m = n * (n - 1) // 2
        for q in (0.01, 2.0, 50.0):
            need = math.floor((m - 1) * (q / 100)) + 2
            values = _upper_pairs(u, _eps_threshold(u, need))[2]
            assert need <= values.size < m

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_eps_falls_back_to_whole_triangle_when_sample_undershoots(self, q):
        # at n = 128 the sample reads the columns 0, 4, 8, ... only; 13
        # copies of one direction there make 169 sampled zeros, enough to
        # put the threshold at 0, but only 78 zero pairs in the triangle
        feats = axis_groups([range(0, 52, 4)])
        m = 128 * 127 // 2
        need = math.floor((m - 1) * (q / 100)) + 2
        u = unit(feats)
        assert _eps_threshold(u, need) == 0.0
        assert _upper_pairs(u, 0.0)[2].size == 78 < need
        expected = np.percentile(triangle(slab_distances(feats)), q)
        assert expected > 0.0
        out = dbscan(feats, q, CFG.dbscan_min_pts)
        assert np.float64(out.eps_resolved).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_eps_candidates_need_k_plus_2_values(self, extra):
        # as in the fall-back test the threshold is 0; groups outside the
        # sampled columns make k+1 zero pairs in all, one short of what
        # the interpolation reads, or k+2, which are enough
        groups = [range(0, 52, 4), range(1, 53, 4), range(2, 16, 4), [3, 7]]
        if extra:
            groups.append([18, 22])
        feats = axis_groups(groups)
        m = 128 * 127 // 2
        k = math.floor((m - 1) * 0.02)
        u = unit(feats)
        assert _eps_threshold(u, k + 2) == 0.0
        assert _upper_pairs(u, 0.0)[2].size == k + 1 + extra
        expected = np.percentile(triangle(slab_distances(feats)), 2.0)
        out = dbscan(feats, 2.0, CFG.dbscan_min_pts)
        assert np.float64(out.eps_resolved).tobytes() == expected.tobytes()
        assert (expected == 0.0) == bool(extra)

    @pytest.mark.parametrize("n", [5, 12])
    def test_eps_takes_both_branches_of_numpy_lerp(self, n):
        # widely spaced values, where a + (b-a)*g and b - (b-a)*(1-g)
        # round apart; np.percentile takes the second when g >= 0.5
        rng = np.random.default_rng(n)
        values = rng.uniform(0.0, 2.0, n * (n - 1) // 2) ** 3
        ordered = np.sort(values)
        one_formula_wrong = 0
        for q in rng.uniform(0.0, 100.0, 300):
            expected = np.float64(np.percentile(values, q))
            pos = (values.size - 1) * (q / 100)
            got = _percentile_of_lowest(values, pos)
            assert np.float64(got).tobytes() == expected.tobytes()
            k = math.floor(pos)
            if k + 1 < values.size:
                a, b = ordered[k], ordered[k + 1]
                one_formula_wrong += a + (b - a) * (pos - k) != expected
        assert one_formula_wrong > 0

    @pytest.mark.parametrize("n", [72, 128], ids=["every pair", "sampled"])
    def test_eps_nan_as_percentile(self, n):
        # a NaN feature row makes its distances NaN, and np.percentile of
        # a triangle holding one NaN is NaN; no point is then a core
        feats = np.random.default_rng(4).standard_normal((n, 5))
        feats[9] = np.nan
        assert math.isnan(np.percentile(triangle(slab_distances(feats)), 2.0))
        out = dbscan(feats, 2.0, CFG.dbscan_min_pts)
        assert math.isnan(out.eps_resolved)
        assert (out.labels == OUTLIER).all()
        values = np.random.default_rng(5).uniform(size=100)
        for where in (0, 50, 99):
            planted = values.copy()
            planted[where] = np.nan
            assert math.isnan(_percentile_of_lowest(planted, 99 * 0.02))

    @pytest.mark.parametrize("n", [EPS_BLOCK_ROWS + 1, 2 * EPS_BLOCK_ROWS + 1, 300])
    def test_matches_reference_across_slab_edges(self, n):
        # one-row tails joined to the slab before them, and a size that
        # is not a multiple of 8
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            feats = rng.standard_normal((n, 5))
            percentile, min_pts = float(rng.uniform(2, 15)), int(rng.integers(2, 6))
            out = dbscan(feats, percentile, min_pts)
            assert out.eps_resolved == float(np.percentile(
                triangle(slab_distances(feats)), percentile))
            ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, min_pts)
            assert out.n_clusters == ref_n
            assert np.array_equal(out.labels, ref_labels)

    def test_single_point_has_zero_eps(self):
        out = dbscan(np.ones((1, 3)), CFG.dbscan_percentile, 1)
        assert out.eps_resolved == 0.0 and out.labels.tolist() == [0]

    def test_peak_memory_is_under_half_a_distance_matrix(self):
        # no n x n float matrix: the boolean adjacency (1/8 of one), the
        # candidate pairs and one slab at a time
        feats = np.random.default_rng(0).standard_normal((1500, 8))
        one_matrix = 1500 * 1500 * 8
        for percentile in (2.0, 8.0):
            tracemalloc.start()
            try:
                dbscan(feats, percentile, CFG.dbscan_min_pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * one_matrix, percentile

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((0, 3)), CFG.dbscan_percentile, CFG.dbscan_min_pts)

    def test_permutation_invariance_on_clean_blobs(self):
        rng = np.random.default_rng(21)
        blob = lambda c: c + 0.01 * rng.standard_normal((8, 3))
        feats = np.vstack([blob(np.array([1.0, 0, 0])), blob(np.array([0, 1.0, 0])),
                           blob(np.array([0, 0, 1.0]))])
        base, _ = cluster_at(feats, 0.05, min_pts=3)
        perm = rng.permutation(24)
        permuted, _ = cluster_at(feats[perm], 0.05, min_pts=3)
        assert same_partition(base[perm], permuted)

    def test_deterministic_given_input_order(self):
        rng = np.random.default_rng(22)
        feats = rng.standard_normal((60, 4))
        a = dbscan(feats, 8.0, 3)
        b = dbscan(feats, 8.0, 3)
        assert np.array_equal(a.labels, b.labels) and a.eps_resolved == b.eps_resolved


class TestDemoteSmallClusters:
    def test_small_clusters_become_outliers(self):
        labels = np.array([0, 0, 0, 0, 0, 1, 1, OUTLIER])
        out = demote_small_clusters(ClusterAssignment(labels, 2, 0.1), min_size=4)
        assert out.n_clusters == 1
        assert out.labels.tolist() == [0, 0, 0, 0, 0, OUTLIER, OUTLIER, OUTLIER]

    def test_renumbering_contiguous(self):
        labels = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2])
        out = demote_small_clusters(ClusterAssignment(labels, 3, 0.1), min_size=4)
        assert out.n_clusters == 2
        assert out.labels.tolist() == [OUTLIER, 0, 0, 0, 0, 1, 1, 1, 1]

    def test_matches_loop_reference(self):
        def reference(assignment, min_size):
            labels = assignment.labels
            keep = [c for c in range(assignment.n_clusters)
                    if np.count_nonzero(labels == c) >= min_size]
            remap = {old: new for new, old in enumerate(keep)}
            out = np.full_like(labels, OUTLIER)
            for i, lab in enumerate(labels):
                if lab != OUTLIER and lab in remap:
                    out[i] = remap[lab]
            return out, len(keep)

        rng = np.random.default_rng(4)
        for _ in range(50):
            n_clusters = int(rng.integers(0, 12))
            labels = rng.integers(-1, n_clusters, size=int(rng.integers(1, 60)))
            assignment = ClusterAssignment(labels, n_clusters, 0.1)
            for min_size in (1, 3, 6):
                out = demote_small_clusters(assignment, min_size)
                ref_labels, ref_n = reference(assignment, min_size)
                assert out.n_clusters == ref_n
                assert np.array_equal(out.labels, ref_labels)
                assert out.eps_resolved == 0.1


def source_args(source):
    """The source descriptors and identity groups rebuild_memory takes."""
    return source.descriptor_matrix(), LabelGroups.of(source.identities())


def memory_args():
    """The run's momentum and temperature, which rebuild_memory takes last."""
    return CFG.memory_momentum, CFG.memory_temperature


class TestHybridMemory:
    def _memory(self, seed=0):
        rng = np.random.default_rng(seed)
        source = make_dataset(rng.standard_normal((8, 3)), [0, 0, 1, 1, 2, 2, 3, 3])
        task_feats = rng.standard_normal((6, 3))
        assignment = ClusterAssignment(np.array([0, 0, 1, 1, OUTLIER, OUTLIER]), 2, 0.1)
        ext = identity_extractor(3)
        mem, slots = rebuild_memory(*source_args(source), task_feats, assignment, ext,
                                    *memory_args())
        return mem, slots, source, task_feats, assignment

    def test_all_slots_unit_norm(self):
        mem, *_ = self._memory()
        assert mem.n_slots == 4 + 2 + 2
        assert np.allclose(np.linalg.norm(mem.slots(), axis=1), 1.0, atol=1e-12)

    def test_single_member_cluster_is_that_feature(self):
        rng = np.random.default_rng(1)
        source = make_dataset(rng.standard_normal((4, 3)), [0, 0, 1, 1])
        task_feats = rng.standard_normal((5, 3))
        assignment = ClusterAssignment(np.array([0, 0, 0, 0, 1]), 2, 0.1)
        mem, _ = rebuild_memory(*source_args(source), task_feats, assignment,
                                identity_extractor(3), *memory_args())
        expected = task_feats[4] / np.linalg.norm(task_feats[4])
        assert np.allclose(mem.slots()[2 + 1], expected, atol=1e-12)   # cluster 1

    def test_centroids_match_direct_loop(self):
        mem, slots, source, task_feats, assignment = self._memory(seed=3)
        unit = task_feats / np.linalg.norm(task_feats, axis=1, keepdims=True)
        for c in range(2):
            rows = np.flatnonzero(assignment.labels == c)
            mean = unit[rows].mean(axis=0)
            mean /= np.linalg.norm(mean)
            assert np.allclose(mem.slots()[4 + c], mean, atol=1e-12)
            assert (slots[rows] == 4 + c).all()     # a clustered row: its centroid
        # after 4 source classes and 2 clusters, the j-th outlier row is slot
        # 6 + j, which holds its own unit feature
        outliers = np.flatnonzero(assignment.labels == OUTLIER)
        assert slots[outliers].tolist() == [6, 7]
        assert np.allclose(mem.slots()[slots[outliers]], unit[outliers], atol=1e-12)

    def test_degenerate_centroid_falls_back_to_first_member(self, caplog):
        source = make_dataset(np.eye(2), [0, 0])
        task_feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                               [0.0, 1.0], [0.0, 1.0]])
        assignment = ClusterAssignment(np.array([0, 0, 1, 1, 1, 1]), 2, 0.1)
        with caplog.at_level("WARNING"):
            mem, _ = rebuild_memory(*source_args(source), task_feats, assignment,
                                    identity_extractor(2), *memory_args())
        assert "degenerate" in caplog.text
        assert np.allclose(mem.slots()[1 + 0], [1.0, 0.0], atol=1e-12)   # cluster 0


def reference_update(memory, slot_indices, unit_features):
    """The momentum update applied one row at a time, in batch order."""
    for slot, feat in zip(slot_indices, unit_features):
        mixed = memory.momentum * memory.bank[slot] + (1.0 - memory.momentum) * feat
        norm = np.linalg.norm(mixed)
        if norm > 0:
            memory.bank[slot] = mixed / norm


def reference_centroids(unit, groups):
    """One gathered mean(axis=0) per group, as rebuild_memory once did."""
    out = []
    for rows in groups:
        mean = unit[rows].mean(axis=0)
        norm = np.linalg.norm(mean)
        out.append(unit[rows[0]].copy() if norm == 0.0 else mean / norm)
    return np.array(out).reshape(len(out), unit.shape[1])


def members(groups):
    """Every group's rows, as an array each."""
    return [groups.rows[start:start + size]
            for start, size in zip(groups.starts.tolist(), groups.sizes.tolist())]


def unit_rows(rng, n, c):
    x = rng.standard_normal((n, c))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


class TestMemoryKernelsBitwise:
    def test_update_matches_sequential_loop(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            c = int(rng.integers(2, 40))
            n_src, n_cl, n_out = (int(v) for v in rng.integers(1, 12, 3))
            ours = HybridMemory(unit_rows(rng, n_src + n_cl + n_out, c),
                                momentum=float(rng.uniform(0, 0.9)),
                                temperature=CFG.memory_temperature)
            ref = HybridMemory(ours.bank.copy(), ours.momentum, ours.temperature)
            for _ in range(4):
                n = int(rng.integers(1, 70))
                # few distinct slots, so most of them repeat in the batch
                slots = rng.choice(rng.integers(0, ours.n_slots, 5), size=n)
                feats = unit_rows(rng, n, c)
                ours.update(slots, feats)
                reference_update(ref, slots, feats)
                assert np.array_equal(ours.slots(), ref.slots())

    def test_update_keeps_a_slot_whose_mix_is_zero(self):
        mem = HybridMemory(np.array([[1.0, 0.0]]), 0.5, CFG.memory_temperature)
        ref = HybridMemory(np.array([[1.0, 0.0]]), 0.5, CFG.memory_temperature)
        batch = np.array([[-1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        mem.update(np.zeros(3, dtype=np.int64), batch)
        reference_update(ref, np.zeros(3, dtype=np.int64), batch)
        assert np.array_equal(mem.slots(), ref.slots())

    def test_update_rejects_unknown_slot(self):
        mem = HybridMemory(np.eye(2), CFG.memory_momentum, CFG.memory_temperature)
        for slot in (-1, 2):
            with pytest.raises(ValueError, match="unresolvable"):
                mem.update(np.array([0, slot]), np.eye(2))

    def test_centroids_match_per_group_mean(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            c = int(rng.integers(2, 40))
            # unequal group sizes, some beyond the round count
            src_ids = np.repeat(np.arange(8), rng.integers(1, 64, 8))
            rng.shuffle(src_ids)
            source = make_dataset(rng.standard_normal((src_ids.size, c)), src_ids)
            n_task = int(rng.integers(5, 120))
            labels = rng.integers(-1, int(rng.integers(1, 6)), n_task)
            # contiguous cluster ids 0..n_cl-1, outliers kept at OUTLIER
            labels = np.unique(labels, return_inverse=True)[1] - (labels.min() == OUTLIER)
            n_cl = int(labels.max()) + 1
            task_feats = rng.standard_normal((n_task, c))
            mem, slots = rebuild_memory(*source_args(source), task_feats,
                                        ClusterAssignment(labels, n_cl, 0.1),
                                        identity_extractor(c), *memory_args())
            src_desc = source.descriptor_matrix()
            src_unit = src_desc / np.linalg.norm(src_desc, axis=1, keepdims=True)
            task_unit = task_feats / np.linalg.norm(task_feats, axis=1, keepdims=True)
            groups = LabelGroups.of(src_ids)
            assert np.array_equal(mem.slots()[:8],
                                  reference_centroids(src_unit, members(groups)))
            assert np.array_equal(mem.slots()[8:8 + n_cl], reference_centroids(
                task_unit, [np.flatnonzero(labels == k) for k in range(n_cl)]))
            # a clustered row's slot is its centroid's, the j-th outlier's
            # is 8 + n_cl + j and holds its own unit feature
            clustered = labels != OUTLIER
            assert np.array_equal(slots[clustered], 8 + labels[clustered])
            outliers = np.flatnonzero(~clustered)
            assert np.array_equal(slots[outliers], 8 + n_cl + np.arange(outliers.size))
            assert np.array_equal(mem.slots()[slots[outliers]], task_unit[outliers])

    def test_zero_mean_falls_back_in_groups_of_several_sizes(self, caplog):
        # a zero-sum pair gathered with five other pairs, and a zero-sum
        # group of 64 rows, the only group of its size
        long_half = 32
        task_feats = np.array([[1.0, 0.0], [-1.0, 0.0]]
                              + [[0.0, 1.0]] * long_half + [[0.0, -1.0]] * long_half
                              + [[1.0, 1.0]] * 10)
        labels = np.array([0, 0] + [1] * (2 * long_half) + list(np.repeat(np.arange(2, 7), 2)))
        source = make_dataset(np.eye(2), [0, 0])
        with caplog.at_level(logging.WARNING):
            mem, _ = rebuild_memory(*source_args(source), task_feats,
                                    ClusterAssignment(labels, 7, 0.1), identity_extractor(2),
                                    *memory_args())
        assert caplog.text.count("degenerate cluster centroid") == 2
        unit = task_feats / np.linalg.norm(task_feats, axis=1, keepdims=True)
        assert np.array_equal(mem.slots()[1:8], reference_centroids(
            unit, [np.flatnonzero(labels == k) for k in range(7)]))

    @pytest.mark.parametrize("width", [1, 16, 2048])
    @pytest.mark.parametrize("sizes", [
        [1190] + [4] * 150,            # one giant cluster beside many small ones
        [4] * 200 + [1190],
        [12] * 600,                    # equal sizes
        [7] * 3,
        [300],                         # a single group
        [1],
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144],
        list(range(60, 0, -1)) * 2,    # sixty distinct sizes, two groups each
    ])
    def test_unit_means_are_the_per_group_mean_bit_for_bit(self, sizes, width):
        rng = np.random.default_rng(len(sizes) + sum(sizes))
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(labels)
        unit = unit_rows(rng, labels.size, width)
        groups = LabelGroups.of(labels)
        want = reference_centroids(unit, members(groups))
        assert _unit_means(unit, groups, "test").tobytes() == want.tobytes()


class TestContrastiveLoss:
    def _orthogonal_memory(self, k, temperature=CFG.memory_temperature):
        return HybridMemory(np.eye(k), CFG.memory_momentum, temperature)

    def test_saturated_softmax_goes_to_zero(self):
        mem = self._orthogonal_memory(2, temperature=1e-3)
        loss, _ = contrastive_loss(np.array([[1.0, 0.0]]), np.array([0]), mem)
        assert loss < 1e-6

    def test_equidistant_slots_give_log_k(self):
        for k in (2, 3, 5):
            mem = self._orthogonal_memory(k)
            feat = np.ones((1, k)) / math.sqrt(k)
            loss, _ = contrastive_loss(feat, np.array([0]), mem)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        k, n, c = 5, 4, 3
        slots = rng.standard_normal((k, c))
        slots /= np.linalg.norm(slots, axis=1, keepdims=True)
        mem = HybridMemory(slots, CFG.memory_momentum, temperature=0.1)
        feats = rng.standard_normal((n, c))
        labels = rng.integers(0, k, n)
        _, grad = contrastive_loss(feats, labels, mem)
        numeric = fd_gradient(lambda x: contrastive_loss(x, labels, mem)[0], feats)
        assert max_rel_error(grad, numeric) <= 1e-4

    def test_memory_update_keeps_unit_norm(self):
        rng = np.random.default_rng(31)
        mem = self._orthogonal_memory(4)
        for _ in range(10):
            feats = rng.standard_normal((6, 4))
            unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            mem.update(rng.integers(0, 4, 6), unit)
            assert np.allclose(np.linalg.norm(mem.slots(), axis=1), 1.0, atol=1e-12)

    def test_unresolvable_slot_rejected(self):
        mem = self._orthogonal_memory(3)
        with pytest.raises(ValueError, match="unresolvable"):
            contrastive_loss(np.ones((1, 3)), np.array([7]), mem)


class TestCrossEntropy:
    def test_confident_correct_logits(self):
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        loss, _ = cross_entropy_loss(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_give_log_k(self):
        for k in (2, 4, 7):
            loss, _ = cross_entropy_loss(np.zeros((3, k)), np.zeros(3, dtype=int))
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        _, grad = cross_entropy_loss(logits, labels)
        numeric = fd_gradient(lambda z: cross_entropy_loss(z, labels)[0], logits)
        assert max_rel_error(grad, numeric) <= 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))

    def test_one_array_of_the_logits_size(self):
        # the 600-class source head's logits at 32 rows: the traced peak
        # was 308,768 bytes when exp(z) had an array of its own, 218,512 after
        rng = np.random.default_rng(33)
        logits, labels = rng.standard_normal((32, 600)), rng.integers(0, 600, 32)
        before = logits.tobytes()
        tracemalloc.start()
        try:
            cross_entropy_loss(logits, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * logits.nbytes, peak
        assert logits.tobytes() == before


def brute_force_triplet(feats, labels, margin):
    """Enumerate all valid triplets, keep the hardest per anchor."""
    unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    n = len(labels)
    losses = []
    for a in range(n):
        d_ap, d_an = None, None
        for p in range(n):
            if p != a and labels[p] == labels[a]:
                d = np.linalg.norm(unit[a] - unit[p])
                d_ap = d if d_ap is None else max(d_ap, d)
        for m in range(n):
            if labels[m] != labels[a]:
                d = np.linalg.norm(unit[a] - unit[m])
                d_an = d if d_an is None else min(d_an, d)
        if d_ap is not None and d_an is not None:
            losses.append(max(0.0, d_ap - d_an + margin))
    return float(np.mean(losses))


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        loss, grad = triplet_loss(feats, labels, margin=0.3)
        assert loss == 0.0
        assert not grad.any()

    def test_equal_distances_hinge_at_margin(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        loss, _ = triplet_loss(feats, labels, margin=0.25)
        assert loss == pytest.approx(0.25, abs=1e-12)

    def test_matches_brute_force_mining(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            feats = rng.standard_normal((10, 4))
            labels = rng.integers(0, 3, 10)
            if len(np.unique(labels)) < 2 or np.all(np.bincount(labels) < 2):
                continue
            try:
                loss, _ = triplet_loss(feats, labels, margin=0.3)
            except ValueError:
                continue
            assert loss == pytest.approx(brute_force_triplet(feats, labels, 0.3),
                                         abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(33)
        feats = rng.standard_normal((8, 4))
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        base, _ = triplet_loss(feats, labels, margin=0.3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated, _ = triplet_loss(feats @ q.T, labels, margin=0.3)
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(34)
        feats = rng.standard_normal((8, 3))
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        _, grad = triplet_loss(feats, labels, margin=0.3)
        numeric = fd_gradient(lambda x: triplet_loss(x, labels, margin=0.3)[0], feats)
        assert max_rel_error(grad, numeric) <= 1e-4

    def test_no_valid_anchor_rejected(self):
        with pytest.raises(ValueError, match="anchor"):
            triplet_loss(np.random.default_rng(0).standard_normal((4, 2)),
                         np.zeros(4, dtype=int), margin=0.3)


# ---------------------------------------------------------------------------
# Byte oracles: the loss kernels as they were written before the norms were
# taken once, the log-softmax ran in place and np.add.at became bincount.
# ---------------------------------------------------------------------------

def oracle_unit_rows(x):
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm feature row")
    return x / norms[:, None]


def oracle_log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def oracle_project(raw, unit, grad_unit):
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    inner = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - inner * unit) / norms


def oracle_cross_entropy_loss(logits, labels):
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != z.shape[0]:
        raise ValueError("labels not parallel to logits")
    if np.any(y < 0) or np.any(y >= z.shape[1]):
        raise ValueError("label out of range for logit width")
    logp = oracle_log_softmax(z)
    n = z.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    grad = np.exp(logp)
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


def oracle_contrastive_loss(batch_features, slot_labels, memory):
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(slot_labels, dtype=np.int64)
    if y.shape[0] != f.shape[0]:
        raise ValueError("labels not parallel to batch")
    if np.any(y < 0) or np.any(y >= memory.n_slots):
        bad = y[(y < 0) | (y >= memory.n_slots)][0]
        raise ValueError(f"unresolvable slot label {bad}")
    unit = oracle_unit_rows(f)
    slots = memory.slots()
    logits = unit @ slots.T / memory.temperature
    logp = oracle_log_softmax(logits)
    n = f.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    grad_unit = (delta / n) @ slots / memory.temperature
    return loss, oracle_project(f, unit, grad_unit)


def oracle_sq_distances(x):
    sq = np.sum(x * x, axis=1)
    return np.clip(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0, None)


def oracle_triplet_loss(batch_features, labels, margin):
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != f.shape[0]:
        raise ValueError("labels not parallel to batch")
    n = f.shape[0]
    unit = oracle_unit_rows(f)
    dist = np.sqrt(oracle_sq_distances(unit))
    same = y[:, None] == y[None, :]
    eye = np.eye(n, dtype=bool)
    pos_mask = same & ~eye
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise ValueError("no anchor with both a positive and a negative in batch")
    anchors = np.flatnonzero(valid)
    hardest_pos = np.argmax(np.where(pos_mask, dist, -np.inf), axis=1)[anchors]
    hardest_neg = np.argmin(np.where(neg_mask, dist, np.inf), axis=1)[anchors]
    hinge = dist[anchors, hardest_pos] - dist[anchors, hardest_neg] + margin
    active = hinge > 0
    a, p, m = anchors[active], hardest_pos[active], hardest_neg[active]
    total = float(np.cumsum(hinge[active])[-1]) if a.size else 0.0
    d_ap, d_am = dist[a, p], dist[a, m]
    g_ap = (unit[a] - unit[p]) / np.where(d_ap > 1e-12, d_ap, 1.0)[:, None]
    g_am = (unit[a] - unit[m]) / np.where(d_am > 1e-12, d_am, 1.0)[:, None]
    rows = np.stack([a, p, a, m], axis=1).ravel()
    steps = np.stack([g_ap, -g_ap, -g_am, g_am], axis=1).reshape(-1, unit.shape[1])
    taken = np.repeat(np.stack([d_ap > 1e-12, d_am > 1e-12], axis=1), 2, axis=1).ravel()
    grad_unit = np.zeros_like(unit)
    np.add.at(grad_unit, rows[taken], steps[taken])
    grad_unit /= n_valid
    return total / n_valid, oracle_project(f, unit, grad_unit)


def same_bytes(got, want):
    return (np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            and got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
            and got[1].tobytes() == want[1].tobytes())


def loss_batches(seed):
    """(features, labels) pairs: PK-shaped batches and irregular ones with
    repeated rows (zero distances), anchors without a positive, and every
    label different."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        p, k, c = int(rng.integers(2, 9)), int(rng.integers(2, 5)), int(rng.integers(1, 33))
        labels = np.repeat(rng.permutation(100)[:p], k)
        yield rng.standard_normal((labels.size, c)), labels
        labels = rng.integers(0, int(rng.integers(2, 6)), int(rng.integers(2, 25)))
        feats = rng.standard_normal((labels.size, c)) * rng.uniform(0.01, 100.0)
        dup = rng.integers(0, labels.size, labels.size // 3)
        feats[dup] = feats[0]                       # zero distances to row 0
        feats[dup[: dup.size // 2]] *= 3.0          # same direction, other norm
        yield feats, labels
    yield rng.standard_normal((6, 4)), np.arange(6)


class TestLossKernelsBitwise:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("margin", [0.3, 0.0, 2.5, -1.0])
    def test_triplet_matches_add_at_oracle(self, seed, margin):
        checked = 0
        for feats, labels in loss_batches(seed):
            try:
                want = oracle_triplet_loss(feats, labels, margin)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    triplet_loss(feats, labels, margin)
                continue
            assert same_bytes(triplet_loss(feats, labels, margin), want)
            checked += 1
        assert checked >= 60

    def test_triplet_corner_batches(self):
        # duplicate rows: every hardest positive sits at distance 0
        feats = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        for margin in (0.3, 2.0):
            assert same_bytes(triplet_loss(feats, labels, margin),
                              oracle_triplet_loss(feats, labels, margin))
        # no active anchor: the loss and the gradient are zero
        loss, grad = triplet_loss(feats, labels, margin=0.0)
        assert loss == 0.0 and grad.dtype == np.float64 and not grad.any()
        assert same_bytes((loss, grad), oracle_triplet_loss(feats, labels, 0.0))
        # anchors without a positive are skipped, not counted
        labels = np.array([0, 0, 1, 2])
        assert same_bytes(triplet_loss(feats, labels, 0.3),
                          oracle_triplet_loss(feats, labels, 0.3))

    def test_triplet_error_cases(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="anchor"):
            triplet_loss(rng.standard_normal((4, 3)), np.arange(4), CFG.triplet_margin)
        with pytest.raises(ValueError, match="parallel"):
            triplet_loss(rng.standard_normal((4, 3)), np.zeros(3, dtype=int),
                         CFG.triplet_margin)
        with pytest.raises(ValueError, match="^zero-norm batch feature row 1: "):
            triplet_loss(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0, 0]),
                         CFG.triplet_margin)

    def test_sq_distances_match_oracle(self):
        rng = np.random.default_rng(8)
        for n, c in [(1, 3), (2, 1), (32, 32), (64, 32), (17, 5)]:
            x = rng.standard_normal((n, c)) * rng.uniform(0.1, 10.0)
            x[n // 2] = x[0]
            assert sq_distances(x).tobytes() == oracle_sq_distances(x).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_entropy_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            logits = rng.standard_normal((n, k)) * rng.uniform(0.1, 50.0)
            labels = rng.integers(0, k, n)
            assert same_bytes(cross_entropy_loss(logits, labels),
                              oracle_cross_entropy_loss(logits, labels))
        logits = np.zeros((3, 4))
        kept = logits.copy()
        cross_entropy_loss(logits, np.array([0, 1, 2]))
        assert logits.tobytes() == kept.tobytes()      # the input is not written

    def test_cross_entropy_error_cases(self):
        for labels in ([0, 4], [-1, 0], [0]):
            for fn in (cross_entropy_loss, oracle_cross_entropy_loss):
                with pytest.raises(ValueError):
                    fn(np.zeros((2, 4)), np.array(labels))

    @pytest.mark.parametrize("seed", range(4))
    def test_contrastive_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for feats, _ in loss_batches(seed):
            c = feats.shape[1]
            n_src, n_cl, n_out = (int(v) for v in rng.integers(1, 12, 3))
            mem = HybridMemory(unit_rows(rng, n_src + n_cl + n_out, c),
                               momentum=CFG.memory_momentum,
                               temperature=float(rng.uniform(0.01, 1.0)))
            slots = rng.integers(0, mem.n_slots, feats.shape[0])
            assert same_bytes(contrastive_loss(feats, slots, mem),
                              oracle_contrastive_loss(feats, slots, mem))

    def test_contrastive_error_cases(self):
        mem = HybridMemory(np.eye(3), CFG.memory_momentum, CFG.memory_temperature)
        for slots in ([0, 3], [-1, 0]):
            bad = [s for s in slots if not 0 <= s < 3][0]
            for fn in (contrastive_loss, oracle_contrastive_loss):
                with pytest.raises(ValueError, match=f"unresolvable slot label {bad}"):
                    fn(np.ones((2, 3)), np.array(slots), mem)
        with pytest.raises(ValueError, match="^zero-norm batch feature row 0: "):
            contrastive_loss(np.zeros((1, 3)), np.array([0]), mem)


def reference_pk_batches(labels, p, k_per_id, rng, n_batches):
    """The sampler before grouping by argsort: one flatnonzero per label."""
    y = np.asarray(labels, dtype=np.int64)
    uniq = np.unique(y[y != OUTLIER])
    if uniq.size < p:
        raise ValueError(f"only {uniq.size} distinct labels available, need P={p}")
    groups = {int(u): np.flatnonzero(y == u) for u in uniq}
    for _ in range(n_batches):
        chosen = rng.choice(uniq, size=p, replace=False)
        batch = []
        for lab in chosen:
            g = groups[int(lab)]
            batch.append(rng.choice(g, size=k_per_id, replace=g.size < k_per_id))
        yield np.concatenate(batch)


class CountingIntegers:
    """A generator that offers only integers, counting its calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def sample(labels, p, k_per_id, seed, n_batches):
    return islice(pk_batches(LabelGroups.of(labels), p, k_per_id,
                             np.random.default_rng(seed)), n_batches)


class TestPkSampler:
    def test_default_batch_geometry(self):
        labels = np.repeat(np.arange(20), 6)
        batches = list(sample(labels, p=16, k_per_id=4, seed=0, n_batches=3))
        for batch in batches:
            assert batch.shape == (64,)
            ids = labels[batch]
            uniq, counts = np.unique(ids, return_counts=True)
            assert uniq.size == 16 and (counts == 4).all()

    def test_small_identity_resampled_with_replacement(self):
        labels = np.array([0, 0, 1, 1, 1, 1])
        batch = next(sample(labels, p=2, k_per_id=4, seed=1, n_batches=1))
        drawn_for_0 = batch[labels[batch] == 0]
        assert drawn_for_0.size == 4
        assert set(drawn_for_0.tolist()) <= {0, 1}
        assert len(set(drawn_for_0.tolist())) < 4  # repetition forced

    def test_deterministic_per_seed(self):
        labels = np.repeat(np.arange(8), 5)
        a = [b.tolist() for b in sample(labels, 4, 3, seed=9, n_batches=4)]
        b = [b.tolist() for b in sample(labels, 4, 3, seed=9, n_batches=4)]
        assert a == b

    def test_outliers_never_sampled(self):
        labels = np.array([0, 0, 0, 1, 1, 1, OUTLIER, OUTLIER])
        for batch in sample(labels, 2, 3, seed=2, n_batches=5):
            assert np.all(labels[batch] != OUTLIER)

    def test_too_few_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct labels"):
            next(sample(np.array([0, 0, 1, 1]), p=3, k_per_id=2, seed=0,
                        n_batches=1))

    def test_groups_match_flatnonzero(self):
        labels = np.array([5, OUTLIER, 2, 5, 9, 2, OUTLIER, 5, 2])
        groups = LabelGroups.of(labels)
        assert groups.labels.tolist() == [2, 5, 9]
        assert groups.sizes.tolist() == [3, 3, 1]
        assert groups.starts.tolist() == [0, 3, 6]
        assert np.array_equal(groups.rows, np.concatenate(
            [np.flatnonzero(labels == lab) for lab in groups.labels]))
        empty = LabelGroups.of(np.full(4, OUTLIER))
        assert len(empty) == 0 and empty.rows.size == 0 and empty.sizes.size == 0

    def test_matches_flatnonzero_reference(self):
        # same seed, same batches and the same generator state afterwards
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(10, 200))
            labels = rng.integers(-1, int(rng.integers(3, 40)), size=n)
            labels[rng.integers(0, n, n // 5)] = OUTLIER
            n_labels = np.unique(labels[labels != OUTLIER]).size
            # every fourth set draws all its labels into each batch
            p = n_labels if seed % 4 == 0 else int(min(rng.integers(2, 9), n_labels))
            k = int(rng.integers(1, 9))
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = list(islice(pk_batches(LabelGroups.of(labels), p, k, ours), 6))
            want = list(reference_pk_batches(labels, p, k, ref, 6))
            assert [b.tolist() for b in got] == [b.tolist() for b in want]
            assert ours.random() == ref.random()
            assert all(np.all(labels[b] != OUTLIER) for b in got)

    def test_tail_shuffle_branch_matches_reference(self):
        # 10,001 labels, one of them with 10,001 rows: both the label pick
        # and that label's members take choice's tail-shuffle branch
        labels = np.concatenate((np.arange(10001), np.zeros(10000, np.int64)))
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = list(islice(pk_batches(LabelGroups.of(labels), 201, 201, ours), 2))
        want = list(reference_pk_batches(labels, 201, 201, ref, 2))
        assert [b.tolist() for b in got] == [b.tolist() for b in want]
        assert ours.random() == ref.random()

    def test_two_bounded_integer_calls_per_batch(self):
        class IntegersOnly:
            """A generator that offers only integers, counting its calls."""

            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        labels = np.repeat(np.arange(12), [1, 2, 3, 4, 5, 6] * 2)
        rng = IntegersOnly(3)
        batches = islice(pk_batches(LabelGroups.of(labels), 6, 4, rng), 5)
        assert rng.calls == 0               # lazy: nothing drawn before next()
        next(batches)
        assert rng.calls == 2
        assert len(list(batches)) == 4 and rng.calls == 10

    @pytest.mark.parametrize("size", [2, 4, 7])
    def test_one_bounded_integer_call_per_batch_for_equal_size_groups(self, size):
        # groups below, at and above k rows: the members' bounds are the
        # same whichever labels are picked, so they join the labels' call
        labels = np.concatenate((np.repeat(np.arange(9), size), [OUTLIER] * 3))
        rng = CountingIntegers(5)
        batches = islice(pk_batches(LabelGroups.of(labels), 6, 4, rng), 5)
        assert rng.calls == 0               # lazy: nothing drawn before next()
        next(batches)
        assert rng.calls == 1
        assert len(list(batches)) == 4 and rng.calls == 5

    def test_equal_size_groups_match_reference(self):
        # the one-call path, at every p, for sizes 1, k-1, k, k+3 and 12
        for k in (2, 4, 9):
            for size in sorted({1, k - 1, k, k + 3, 12}):
                labels = np.repeat(np.arange(7), size)
                labels = np.concatenate((labels, [OUTLIER] * 4))
                labels = labels[np.random.default_rng(size).permutation(labels.size)]
                for p in range(2, 8):
                    seed = 100 * k + 10 * size + p
                    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = list(islice(pk_batches(LabelGroups.of(labels), p, k, ours), 5))
                    want = list(reference_pk_batches(labels, p, k, ref, 5))
                    assert [b.tolist() for b in got] == [b.tolist() for b in want], (k, size, p)
                    assert ours.bit_generator.state == ref.bit_generator.state, (k, size, p)

    def test_one_sampler_across_epochs_matches_per_epoch_references(self):
        # one sampler over groups kept for a run or a task, drawn from
        # epoch after epoch while other draws share its generator, gives
        # the batches of a reference sampler made anew every epoch
        labels = np.repeat(np.arange(12), [1, 2, 3, 4, 5, 6] * 2)
        ours, ref = np.random.default_rng(9), np.random.default_rng(9)
        batches = pk_batches(LabelGroups.of(labels), 6, 4, ours)
        for epoch in range(5):
            got = list(islice(batches, 3))
            want = list(reference_pk_batches(labels, 6, 4, ref, 3))
            assert [b.tolist() for b in got] == [b.tolist() for b in want], epoch
            assert ours.integers(1000) == ref.integers(1000), epoch
        assert ours.random() == ref.random()


CHOICE_CHANGED = ("_choice_from_draws no longer rebuilds Generator.choice: "
                  "NumPy's choice algorithm changed")


def check_choice_rebuilt(pop, size, replace, seed):
    """The helpers against rng.choice(pop, size, replace): the same picks,
    and the same generator state afterwards."""
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in (ours, ref):
        g.integers(0, 5)        # leaves half a 64-bit output buffered
    want = ref.choice(pop, size, replace=replace)
    bounds = np.array(_choice_bounds(pop, size, replace), dtype=np.int64)
    draws = ours.integers(0, bounds, endpoint=True).tolist()
    got = _choice_from_draws(pop, size, replace, draws)
    assert got == want.tolist(), f"{CHOICE_CHANGED} (pop {pop}, size {size}, replace {replace})"
    assert ours.bit_generator.state == ref.bit_generator.state, \
        f"{CHOICE_CHANGED}: the generator state differs (pop {pop}, size {size})"


class TestChoiceFromDraws:
    @pytest.mark.parametrize("pop,size", [(1, 1), (2, 2), (5, 5), (37, 37),
                                          (1, 0), (9, 1), (60, 1), (60, 8),
                                          (10001, 200), (20000, 400)])
    def test_floyd(self, pop, size):
        assert not _tail_shuffled(pop, size)
        for seed in range(5):
            check_choice_rebuilt(pop, size, False, seed)

    @pytest.mark.parametrize("pop,size", [(10001, 201), (10001, 10001),
                                          (10001, 10000), (20000, 401)])
    def test_tail_shuffle(self, pop, size):
        assert _tail_shuffled(pop, size)
        for seed in range(3):
            check_choice_rebuilt(pop, size, False, seed)

    @pytest.mark.parametrize("pop,size", [(1, 1), (1, 4), (3, 8), (50, 7)])
    def test_with_replacement(self, pop, size):
        for seed in range(5):
            check_choice_rebuilt(pop, size, True, seed)

    def test_random_populations(self):
        rng = np.random.default_rng(7)
        for seed in range(400):
            pop = int(rng.integers(1, 80))
            check_choice_rebuilt(pop, int(rng.integers(0, pop + 1)), False, seed)
            check_choice_rebuilt(pop, int(rng.integers(0, 10)), True, seed)

    @pytest.mark.parametrize("pop,size,replace", [(9, 4, False), (60, 8, False),
                                                  (3, 4, True), (10001, 201, False),
                                                  (10001, 10001, False)])
    def test_takes_exactly_its_draws_from_a_shared_iterator(self, pop, size, replace):
        # a batch's labels read their draws in turn from one iterator
        bounds = _choice_bounds(pop, size, replace)
        rng = np.random.default_rng(pop + size)
        draws = rng.integers(0, np.array(bounds, np.int64), endpoint=True).tolist()
        after = rng.integers(0, 3, 7).tolist()
        shared = iter(draws + after)
        assert (_choice_from_draws(pop, size, replace, shared)
                == _choice_from_draws(pop, size, replace, draws))
        assert list(shared) == after

    def test_zero_bounds_consume_nothing(self):
        # Floyd's first draw when size == pop, and every draw from a 1-row
        # group, has bound 0
        assert _choice_bounds(3, 3, False) == [0, 1, 2, 2, 1]
        assert _choice_bounds(1, 3, True) == [0, 0, 0]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert rng.integers(0, np.zeros(4, np.int64), endpoint=True).tolist() == [0] * 4
        assert rng.bit_generator.state == before
