import math

import numpy as np
import pytest

from streamreid.pseudo import (ClusterAssignment, DbscanParams, HybridMemory,
                               LabelGroups, OUTLIER, contrastive_loss,
                               cosine_distances, cross_entropy_loss, dbscan,
                               demote_small_clusters, pk_batches,
                               rebuild_memory, triplet_loss)
from tests.conftest import (fd_gradient, identity_extractor, make_dataset,
                            max_rel_error)


# ---------------------------------------------------------------------------
# Reference DBSCAN: union-find over core points, declarative border rule.
# Deliberately structured unlike the production scan-and-expand version.
# ---------------------------------------------------------------------------

def reference_dbscan(features, eps, min_pts):
    dist = cosine_distances(features)
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
        out = dbscan(feats, DbscanParams(eps=0.01, min_pts=2))
        assert out.n_clusters == 1
        assert out.labels.tolist() == [0, 0, 0, OUTLIER]

    def test_all_identical_points_single_cluster(self):
        feats = np.tile([0.3, 0.4], (6, 1))
        out = dbscan(feats, DbscanParams(eps=0.5, min_pts=4))
        assert out.n_clusters == 1
        assert (out.labels == 0).all()

    def test_matches_reference_on_random_instances(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            feats = rng.standard_normal((120, 5))
            params = DbscanParams(percentile=float(rng.uniform(2, 15)),
                                  min_pts=int(rng.integers(2, 6)))
            out = dbscan(feats, params)
            ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, params.min_pts)
            assert out.n_clusters == ref_n
            assert same_partition(out.labels, ref_labels)
            # canonical numbering by first-core order also matches exactly
            assert np.array_equal(out.labels, ref_labels)

    def test_single_giant_cluster_matches_reference(self):
        # a wide eps chains every point into one cluster, as adaptive eps
        # does on large tasks; borders and the lone outlier must agree too
        rng = np.random.default_rng(23)
        feats = np.vstack([rng.standard_normal((200, 6)) + 4.0, -np.ones((1, 6))])
        params = DbscanParams(percentile=40.0, min_pts=5)
        out = dbscan(feats, params)
        ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, params.min_pts)
        assert out.n_clusters == ref_n == 1
        assert np.array_equal(out.labels, ref_labels)
        assert out.labels[-1] == OUTLIER

    def test_contested_border_joins_earliest_cluster(self):
        # the border point at 0.05 rad is within eps of one core of each
        # cluster but is not a core itself; the first-created cluster keeps it
        a = [0.0, 0.003, 0.006, 0.009]
        b = [0.091, 0.094, 0.097, 0.1]
        params = DbscanParams(eps=1.0 - np.cos(0.042), min_pts=4)
        for angles in (a + [0.05] + b, b + [0.05] + a):
            feats = directions(angles)
            out = dbscan(feats, params)
            ref_labels, ref_n = reference_dbscan(feats, params.eps, params.min_pts)
            assert out.n_clusters == ref_n == 2
            assert np.array_equal(out.labels, ref_labels)
            assert out.labels[4] == 0

    def test_min_pts_one_matches_reference(self):
        # every point is core, so no outliers: isolated points are singletons
        for seed in range(5):
            rng = np.random.default_rng(30 + seed)
            feats = rng.standard_normal((80, 4))
            params = DbscanParams(percentile=3.0, min_pts=1)
            out = dbscan(feats, params)
            ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, 1)
            assert out.n_clusters == ref_n
            assert np.array_equal(out.labels, ref_labels)
            assert not np.any(out.labels == OUTLIER)

    def test_adaptive_eps_is_percentile_of_upper_triangle(self):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((30, 4))
        out = dbscan(feats, DbscanParams(percentile=10.0, min_pts=3))
        dist = cosine_distances(feats)
        iu = np.triu_indices(30, k=1)
        assert out.eps_resolved == pytest.approx(np.percentile(dist[iu], 10.0), abs=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((0, 3)), DbscanParams(eps=0.1))

    def test_permutation_invariance_on_clean_blobs(self):
        rng = np.random.default_rng(21)
        blob = lambda c: c + 0.01 * rng.standard_normal((8, 3))
        feats = np.vstack([blob(np.array([1.0, 0, 0])), blob(np.array([0, 1.0, 0])),
                           blob(np.array([0, 0, 1.0]))])
        params = DbscanParams(eps=0.05, min_pts=3)
        base = dbscan(feats, params)
        perm = rng.permutation(24)
        permuted = dbscan(feats[perm], params)
        assert same_partition(base.labels[perm], permuted.labels)

    def test_deterministic_given_input_order(self):
        rng = np.random.default_rng(22)
        feats = rng.standard_normal((60, 4))
        params = DbscanParams(percentile=8.0, min_pts=3)
        a = dbscan(feats, params)
        b = dbscan(feats, params)
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


class TestHybridMemory:
    def _memory(self, seed=0):
        rng = np.random.default_rng(seed)
        source = make_dataset(rng.standard_normal((8, 3)), [0, 0, 1, 1, 2, 2, 3, 3])
        task_feats = rng.standard_normal((6, 3))
        assignment = ClusterAssignment(np.array([0, 0, 1, 1, OUTLIER, OUTLIER]), 2, 0.1)
        ext = identity_extractor(3)
        mem = rebuild_memory(None, *source_args(source), task_feats, assignment, ext)
        return mem, source, task_feats, assignment

    def test_slot_layout_and_counts(self):
        mem, *_ = self._memory()
        assert mem.source_centroids.shape[0] == 4
        assert mem.cluster_centroids.shape[0] == 2
        assert mem.outlier_features.shape[0] == 2
        assert mem.n_slots == 8
        assert mem.source_slots(np.array([2, 0, 2])).tolist() == [2, 0, 2]
        # clusters 0 and 1 take slots 4 and 5, outlier rows 4 and 5 slots 6 and 7
        assert mem.task_slots(np.array([0, 0, 1, 1, OUTLIER, OUTLIER])).tolist() == \
            [4, 4, 5, 5, 6, 7]

    def test_all_slots_unit_norm(self):
        mem, *_ = self._memory()
        assert np.allclose(np.linalg.norm(mem.slots(), axis=1), 1.0, atol=1e-12)

    def test_single_member_cluster_is_that_feature(self):
        rng = np.random.default_rng(1)
        source = make_dataset(rng.standard_normal((4, 3)), [0, 0, 1, 1])
        task_feats = rng.standard_normal((5, 3))
        assignment = ClusterAssignment(np.array([0, 0, 0, 0, 1]), 2, 0.1)
        mem = rebuild_memory(None, *source_args(source), task_feats, assignment,
                             identity_extractor(3))
        expected = task_feats[4] / np.linalg.norm(task_feats[4])
        assert np.allclose(mem.cluster_centroids[1], expected, atol=1e-12)

    def test_centroids_match_direct_loop(self):
        mem, source, task_feats, assignment = self._memory(seed=3)
        unit = task_feats / np.linalg.norm(task_feats, axis=1, keepdims=True)
        for c in range(2):
            rows = np.flatnonzero(assignment.labels == c)
            mean = unit[rows].mean(axis=0)
            mean /= np.linalg.norm(mean)
            assert np.allclose(mem.cluster_centroids[c], mean, atol=1e-12)

    def test_degenerate_centroid_falls_back_to_first_member(self, caplog):
        source = make_dataset(np.eye(2), [0, 0])
        task_feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                               [0.0, 1.0], [0.0, 1.0]])
        assignment = ClusterAssignment(np.array([0, 0, 1, 1, 1, 1]), 2, 0.1)
        with caplog.at_level("WARNING"):
            mem = rebuild_memory(None, *source_args(source), task_feats, assignment,
                                 identity_extractor(2))
        assert "degenerate" in caplog.text
        assert np.allclose(mem.cluster_centroids[0], [1.0, 0.0], atol=1e-12)

    def test_unresolvable_labels_rejected(self):
        mem, *_ = self._memory()
        with pytest.raises(ValueError, match="unresolvable"):
            mem.source_slots(np.array([1, 99]))
        with pytest.raises(ValueError, match="unresolvable"):
            mem.source_slots(np.array([-5]))
        with pytest.raises(ValueError, match="unresolvable"):
            mem.task_slots(np.array([0, 0, 7, 1, OUTLIER, OUTLIER]))
        with pytest.raises(ValueError, match="unresolvable"):
            # row 0 is clustered in the memory, not an outlier instance
            mem.task_slots(np.array([OUTLIER, 0, 1, 1, OUTLIER, OUTLIER]))


class TestContrastiveLoss:
    def _orthogonal_memory(self, k, temperature=0.05):
        return HybridMemory(np.eye(k), np.zeros((0, k)), np.zeros((0, k)),
                            list(range(k)), [], momentum=0.2,
                            temperature=temperature)

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
        mem = HybridMemory(slots, np.zeros((0, c)), np.zeros((0, c)),
                           list(range(k)), [], momentum=0.2, temperature=0.1)
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


def sample(labels, p, k_per_id, seed, n_batches):
    return pk_batches(LabelGroups.of(labels), p, k_per_id,
                      np.random.default_rng(seed), n_batches)


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
        for lab, rows in zip(groups.labels, groups.members):
            assert np.array_equal(rows, np.flatnonzero(labels == lab))
        assert len(LabelGroups.of(np.full(4, OUTLIER))) == 0

    def test_matches_flatnonzero_reference(self):
        # same seed, same batches and the same generator state afterwards
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(10, 200))
            labels = rng.integers(-1, int(rng.integers(3, 40)), size=n)
            labels[rng.integers(0, n, n // 5)] = OUTLIER
            p = int(min(rng.integers(2, 9), np.unique(labels[labels != OUTLIER]).size))
            k = int(rng.integers(1, 6))
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = list(pk_batches(LabelGroups.of(labels), p, k, ours, 6))
            want = list(reference_pk_batches(labels, p, k, ref, 6))
            assert [b.tolist() for b in got] == [b.tolist() for b in want]
            assert ours.random() == ref.random()
            assert all(np.all(labels[b] != OUTLIER) for b in got)
