import math
import tracemalloc

import numpy as np
import pytest

from streamreid.data import Domain
from streamreid.distill import (SUPPORT_BLOCK_ROWS, SupportMode, SupportSet,
                                ema_update, kd_loss_from_features, merge_support,
                                mmd_bandwidth, mmd_loss, select_support)
from streamreid.mlp import MLP
from tests.conftest import (CFG, fd_gradient, fd_param_gradients, identity_extractor,
                            make_dataset, max_rel_error)


def brute_force_support_identities(source, target, extractor):
    """O(N_s * N_t) double loop over cosine similarities."""
    fs = extractor.features(source.descriptor_matrix())
    ft = extractor.features(target.descriptor_matrix())
    chosen = set()
    for t in range(ft.shape[0]):
        best_idx, best_val = None, -np.inf
        for s in range(fs.shape[0]):
            num = float(np.dot(fs[s], ft[t]))
            val = num / (np.linalg.norm(fs[s]) * np.linalg.norm(ft[t]))
            if val > best_val:
                best_val, best_idx = val, s
        chosen.add(int(source.identities()[best_idx]))
    return chosen


class TestSelectSupport:
    def test_exact_feature_match_selects_that_identity(self):
        ext = identity_extractor(3)
        source = make_dataset([[1, 0, 0], [1, 0.9, 0], [0, 1, 0], [0, 1, 0.1]],
                              [0, 0, 1, 1])
        target = make_dataset([[0, 1, 0]], [99], domain=Domain.TARGET)
        sup = select_support(target, source, ext, CFG.support_mode)
        assert sup.identities() == {1}

    def test_identity_closure(self):
        ext = identity_extractor(2)
        source = make_dataset([[1, 0], [0.9, 0.1], [0.95, 0.05], [0, 1], [0.1, 0.9]],
                              [0, 0, 0, 1, 1])
        target = make_dataset([[0.99, 0.01]], [5], domain=Domain.TARGET)
        sup = select_support(target, source, ext, CFG.support_mode)
        assert sup.identities() == {0}
        assert len(sup) == 3  # all three samples of identity 0

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ext = MLP([5, 6, 4], seed=seed)
            source = make_dataset(rng.standard_normal((40, 5)),
                                  rng.integers(0, 12, 40))
            target = make_dataset(rng.standard_normal((15, 5)),
                                  rng.integers(0, 5, 15), domain=Domain.TARGET)
            sup = select_support(target, source, ext, CFG.support_mode)
            assert sup.identities() == brute_force_support_identities(source, target, ext)
            assert sup.source is source

    def test_zero_norm_feature_rejected(self):
        ext = identity_extractor(2)
        source = make_dataset([[1, 0], [0, 0]], [0, 0])
        target = make_dataset([[1, 1]], [0], domain=Domain.TARGET)
        with pytest.raises(ValueError, match="^zero-norm source feature row 1: "):
            select_support(target, source, ext, CFG.support_mode)

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(3)
        source = make_dataset(rng.standard_normal((30, 4)), rng.integers(0, 8, 30))
        target = make_dataset(rng.standard_normal((10, 4)), rng.integers(0, 3, 10),
                              domain=Domain.TARGET)
        ext = MLP([4, 5, 3], seed=1)
        base = select_support(target, source, ext, CFG.support_mode).identities()
        for c in (0.01, 7.0):
            scaled = MLP([4, 5, 3], seed=1)
            scaled.set_params({"layer1.W": scaled.params["layer1.W"] * c,
                               "layer1.b": scaled.params["layer1.b"] * c})
            got = select_support(target, source, scaled, CFG.support_mode).identities()
            assert got == base


def full_matrix_support(target, source, extractor, mode):
    """select_support computed from the whole (n_target, n_source) cosine
    matrix at once."""
    if mode is SupportMode.FULL_SOURCE:
        return list(range(len(source))), sorted(source.identity_set())
    f_src = extractor.features(source.descriptor_matrix())
    f_tgt = extractor.features(target.descriptor_matrix())
    f_src = f_src / np.linalg.norm(f_src, axis=1)[:, None]
    f_tgt = f_tgt / np.linalg.norm(f_tgt, axis=1)[:, None]
    cos = f_tgt @ f_src.T
    best = np.argmax(cos, axis=1)
    src_ids = source.identities()
    picked = set(src_ids[best].tolist())
    if mode is SupportMode.RANK1_NN:
        rows = sorted(set(best.tolist()))
    else:
        rows = [i for i, ident in enumerate(src_ids.tolist()) if ident in picked]
    return rows, sorted(picked)


class TestBlockedSelection:
    @pytest.mark.parametrize("mode", list(SupportMode))
    @pytest.mark.parametrize("n_target", [1, 64, 65, 130])
    def test_equals_full_matrix_reference(self, mode, n_target):
        rng = np.random.default_rng(n_target)
        src = rng.standard_normal((90, 6))
        src[57] = src[12]                   # exact duplicates under two identities
        tgt = rng.standard_normal((n_target, 6))
        # target rows on both sides of the first block boundary tie on them
        tgt[min(n_target, SUPPORT_BLOCK_ROWS) - 1] = src[12]
        tgt[-1] = 2.0 * src[12]
        ids = rng.integers(0, 30, 90)
        ids[12], ids[57] = 40, 41
        source = make_dataset(src, ids)
        target = make_dataset(tgt, rng.integers(0, 9, n_target), domain=Domain.TARGET)
        ext = identity_extractor(6)
        sup = select_support(target, source, ext, mode)
        rows, order = full_matrix_support(target, source, ext, mode)
        assert sup.rows.tolist() == rows
        assert sup.identity_order == order
        if mode is not SupportMode.FULL_SOURCE:
            # the tie goes to the lower source index, never to its duplicate
            assert 40 in sup.identity_order and 41 not in sup.identity_order

    def test_peak_memory_is_a_slab_not_the_matrix(self):
        rng = np.random.default_rng(0)
        source = make_dataset(rng.standard_normal((4000, 8)), np.repeat(np.arange(1000), 4))
        target = make_dataset(rng.standard_normal((1000, 8)), np.zeros(1000),
                              domain=Domain.TARGET)
        ext = MLP([8, 16], seed=0)
        full_matrix = 1000 * 4000 * 8
        tracemalloc.start()
        try:
            select_support(target, source, ext, CFG.support_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 4


class TestSupportVariants:
    def _instance(self, seed=0):
        rng = np.random.default_rng(seed)
        source = make_dataset(rng.standard_normal((20, 3)), np.repeat(np.arange(5), 4))
        target = make_dataset(rng.standard_normal((4, 3)), [0, 0, 1, 1],
                              domain=Domain.TARGET)
        return source, target, MLP([3, 3], seed=seed)

    def test_full_source_keeps_everything(self):
        source, target, ext = self._instance()
        sup = select_support(target, source, ext, SupportMode.FULL_SOURCE)
        assert len(sup) == 20

    def test_rank1_single_target_single_entry(self):
        source, target, ext = self._instance()
        one = make_dataset(target.descriptor_matrix()[:1], [0], domain=Domain.TARGET)
        sup = select_support(one, source, ext, SupportMode.RANK1_NN)
        assert len(sup) == 1

    def test_identity_expanded_superset_of_rank1(self):
        source, target, ext = self._instance(seed=5)
        r1 = select_support(target, source, ext, SupportMode.RANK1_NN)
        full = select_support(target, source, ext, SupportMode.IDENTITY_EXPANDED)
        assert set(r1.rows.tolist()) <= set(full.rows.tolist())
        assert r1.identities() == full.identities()

    def test_merge_evicts_oldest_identities(self):
        source, target, ext = self._instance()
        ids = source.identities()
        old = SupportSet(source, np.flatnonzero(np.isin(ids, (0, 1))),
                         identity_order=[0, 1])
        new = SupportSet(source, np.flatnonzero(np.isin(ids, (1, 2))),
                         identity_order=[1, 2])
        merged = merge_support(old, new, cap_identities=2)
        assert merged.identity_order == [1, 2]
        assert merged.identities() == {1, 2}
        uncapped = merge_support(old, new, cap_identities=0)
        assert uncapped.identities() == {0, 1, 2}

    def test_rejects_non_source_rows(self):
        source, target, ext = self._instance()
        with pytest.raises(ValueError, match="source-domain dataset, got a target"):
            select_support(target, target, ext, CFG.support_mode)
        with pytest.raises(ValueError, match="source-domain dataset, got a target"):
            SupportSet(target, [0])

    def test_merge_rejects_different_sources(self):
        source, target, ext = self._instance()
        other = make_dataset(source.descriptor_matrix(), source.identities())
        with pytest.raises(ValueError, match="different source datasets"):
            merge_support(SupportSet(source, [0]), SupportSet(other, [1]),
                          CFG.support_cap)


def reference_merge(old, new, cap):
    """merge_support's row order, as the per-row scan it replaced: rows
    grouped by identity in age order, old rows before new ones, a repeated
    row kept at its first occurrence."""
    ids = old.source.identities()
    fresh = new.identities()
    order = [i for i in old.identity_order if i not in fresh] + list(new.identity_order)
    if cap > 0:
        order = order[-cap:]
    by_id = {}
    for r in old.rows.tolist() + new.rows.tolist():
        if ids[r] in order:
            group = by_id.setdefault(int(ids[r]), [])
            if r not in group:
                group.append(r)
    return [r for i in order for r in by_id.get(i, [])], order


class TestMergeOrder:
    def test_interleaved_rows_keep_scan_order(self):
        # identity 7 owns rows 0, 4 and 9; the old set holds 9 before 0, the
        # new set repeats 9 and adds 4: the merge keeps 9, 0, 4, never sorted
        ids = [7, 3, 3, 5, 7, 5, 3, 5, 1, 7]
        source = make_dataset(np.eye(10), ids)
        old = SupportSet(source, [9, 0, 1], identity_order=[7, 3])
        new = SupportSet(source, [3, 9, 4], identity_order=[5, 7])
        merged = merge_support(old, new, CFG.support_cap)
        assert merged.identity_order == [3, 5, 7]
        assert merged.rows.tolist() == [1, 3, 9, 0, 4]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_row_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        source = make_dataset(rng.standard_normal((n, 2)), rng.integers(0, 12, n))
        ids = source.identities()

        def draw():
            rows = rng.choice(n, int(rng.integers(0, n + 1)), replace=False)
            order = list(dict.fromkeys(ids[rows].tolist()))
            rng.shuffle(order)
            return SupportSet(source, rows, order)

        merged = draw()
        for _ in range(4):
            new, cap = draw(), int(rng.integers(0, 6))
            rows, order = reference_merge(merged, new, cap)
            merged = merge_support(merged, new, cap)
            assert merged.rows.tolist() == rows
            assert merged.identity_order == order


class TestEmaUpdate:
    def test_alpha_zero_copies_student(self):
        student = MLP([3, 2], seed=1)
        teacher = MLP([3, 2], seed=2)
        ema_update(teacher, student, alpha=0.0)
        assert np.array_equal(teacher.theta, student.theta)

    def test_alpha_half_arithmetic(self):
        teacher = MLP([2, 2], seed=0)
        zeros = {k: np.zeros_like(v) for k, v in teacher.params.items()}
        teacher.set_params(zeros)
        twos = MLP([2, 2], seed=1)
        twos.set_params({k: np.full_like(v, 2.0) for k, v in zeros.items()})
        ema_update(teacher, twos, 0.5)
        for v in teacher.params.values():
            assert np.allclose(v, 1.0, atol=0)

    def test_geometric_decay_closed_form(self):
        for alpha in (0.0, 0.5, 0.999):
            teacher = MLP([2, 2], seed=3)
            target = MLP([2, 2], seed=0)
            target.theta[:] = 5.0
            gap0 = teacher.theta - 5.0
            for t in range(1, 51):
                ema_update(teacher, target, alpha)
                expected = 5.0 + alpha**t * gap0
                assert np.allclose(teacher.theta, expected, atol=1e-10)

    def test_convex_combination_bounds(self):
        teacher = MLP([2, 2], seed=4)
        rng = np.random.default_rng(0)
        lo = teacher.theta.copy()
        hi = teacher.theta.copy()
        student = MLP([2, 2], seed=5)
        for _ in range(20):
            student.theta[:] = rng.standard_normal(student.theta.size)
            ema_update(teacher, student, 0.7)
            lo = np.minimum(lo, student.theta)
            hi = np.maximum(hi, student.theta)
            assert np.all(teacher.theta >= lo - 1e-12)
            assert np.all(teacher.theta <= hi + 1e-12)

    def test_shape_mismatch_rejected(self):
        teacher = MLP([3, 2], seed=0)
        with pytest.raises(ValueError, match="do not match"):
            ema_update(teacher, MLP([2, 2], seed=0), 0.999)
        with pytest.raises(ValueError, match="do not match"):   # same size, other shape
            ema_update(teacher, MLP([1, 4], seed=0), 0.999)


class TestSimilarityMatrix:
    """The Gram matrix S = F F^T that kd_loss_from_features compares."""

    def test_orthonormal_rows_give_identity(self):
        # any orthonormal rows have the Gram matrix of eye(3)
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        loss, grad = kd_loss_from_features(np.eye(3), q)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_zero_features_give_zero(self):
        loss, grad = kd_loss_from_features(np.zeros((4, 2)), np.zeros((4, 2)))
        assert loss == 0.0 and not grad.any()

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        ft, fs = rng.standard_normal((4, 3)), rng.standard_normal((4, 5))
        st, ss = np.empty((4, 4)), np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                st[i, j] = float(np.dot(ft[i], ft[j]))
                ss[i, j] = float(np.dot(fs[i], fs[j]))
        expected = float(np.sum((st / np.linalg.norm(st) - ss / np.linalg.norm(ss)) ** 2))
        assert kd_loss_from_features(ft, fs)[0] == pytest.approx(expected, abs=1e-12)

    def test_single_row_rejected(self):
        f = np.ones((2, 3))
        with pytest.raises(ValueError):
            kd_loss_from_features(np.ones((1, 3)), f)
        with pytest.raises(ValueError):
            kd_loss_from_features(f, np.ones((1, 3)))


class TestKdLoss:
    def test_identical_matrices_zero(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((5, 3))
        loss, grad = kd_loss_from_features(f, f)
        assert loss == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((4, 3))
        for c in (0.1, 3.0, 100.0):
            loss, _ = kd_loss_from_features(c * f, f)
            assert abs(loss) <= 1e-12

    def test_hand_computed_example(self):
        # Gram matrices eye(2) for the teacher and ones((2, 2)) for the student
        loss, _ = kd_loss_from_features(np.eye(2), np.ones((2, 1)))
        expected = 2 * (1 / math.sqrt(2) - 0.5) ** 2 + 2 * 0.25
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_one_sided_zero_rejected(self):
        f = np.random.default_rng(0).standard_normal((3, 2))
        with pytest.raises(ValueError):
            kd_loss_from_features(np.zeros((3, 2)), f)
        with pytest.raises(ValueError):
            kd_loss_from_features(f, np.zeros((3, 2)))
        loss, grad = kd_loss_from_features(np.zeros((3, 2)), np.zeros((3, 2)))
        assert loss == 0.0 and grad.shape == (3, 2) and not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ft = rng.standard_normal((5, 3))
        fs = rng.standard_normal((5, 3))
        _, grad = kd_loss_from_features(ft, fs)
        numeric = fd_gradient(lambda x: kd_loss_from_features(ft, x)[0], fs)
        assert max_rel_error(grad, numeric) <= 1e-4

    def test_parameter_gradient_through_mlp(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 4))
        teacher = MLP([4, 5, 3], seed=11)
        student = MLP([4, 5, 3], seed=12)
        ft = teacher.features(x)

        fs, cache = student.forward(x)
        _, gf = kd_loss_from_features(ft, fs)
        analytic = student.backward(cache, gf)
        numeric = fd_param_gradients(
            student, lambda: kd_loss_from_features(ft, student.features(x))[0])
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        ft = rng.standard_normal((6, 3))
        fs = rng.standard_normal((6, 3))
        base, _ = kd_loss_from_features(ft, fs)
        perm = rng.permutation(6)
        permuted, _ = kd_loss_from_features(ft[perm], fs[perm])
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_rescaling_either_batch_is_free(self):
        rng = np.random.default_rng(7)
        ft = rng.standard_normal((4, 3))
        fs = rng.standard_normal((4, 3))
        base, _ = kd_loss_from_features(ft, fs)
        assert kd_loss_from_features(2.5 * ft, fs)[0] == pytest.approx(base, abs=1e-12)
        assert kd_loss_from_features(ft, 0.3 * fs)[0] == pytest.approx(base, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            loss, _ = kd_loss_from_features(rng.standard_normal((4, 2)),
                                            rng.standard_normal((4, 2)))
            assert loss >= 0.0


def gaussian_kernel(a, b, sigma):
    """Oracle kernel for the MMD tests: exp(-||a - b||^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("kernel arguments must have equal shape")
    return float(np.exp(-np.sum((a - b) ** 2) / (2.0 * sigma**2)))


class TestGaussianKernel:
    def test_coincident_points(self):
        v = np.array([1.0, -2.0, 0.5])
        assert gaussian_kernel(v, v, sigma=0.7) == 1.0

    def test_distance_sqrt_two_sigma(self):
        sigma = 1.3
        a = np.array([sigma * math.sqrt(2.0), 0.0])
        b = np.zeros(2)
        assert gaussian_kernel(a, b, sigma) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_matches_straight_line_reevaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            sigma = float(rng.uniform(0.2, 3.0))
            expected = math.exp(-sum((x - y) ** 2 for x, y in zip(a, b)) / (2 * sigma**2))
            assert gaussian_kernel(a, b, sigma) == pytest.approx(expected, abs=1e-15)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros(2), np.zeros(2), 0.0)


def brute_force_mmd(bt, bs, sigma):
    n = bt.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += gaussian_kernel(bt[i], bt[j], sigma)
            total += gaussian_kernel(bs[i], bs[j], sigma)
            total -= 2.0 * gaussian_kernel(bt[i], bs[j], sigma)
    return total / n**2


def broadcast_sq_dists(x, y):
    """Pairwise squared distances through an (n, m, c) difference tensor."""
    d = x[:, None, :] - y[None, :, :]
    return np.sum(d * d, axis=-1)


def broadcast_mmd(bt, bs, sigma):
    """MMD and its student gradient from three broadcast kernels."""
    n, s2 = bt.shape[0], sigma * sigma
    k_tt = np.exp(-broadcast_sq_dists(bt, bt) / (2.0 * s2))
    k_ss = np.exp(-broadcast_sq_dists(bs, bs) / (2.0 * s2))
    k_ts = np.exp(-broadcast_sq_dists(bt, bs) / (2.0 * s2))
    loss = (k_tt.sum() + k_ss.sum() - 2.0 * k_ts.sum()) / n**2
    grad = (k_ss @ bs - k_ss.sum(axis=1)[:, None] * bs
            + k_ts.sum(axis=0)[:, None] * bs - k_ts.T @ bt)
    return loss, grad * 2.0 / (n**2 * s2)


def total_variance(x):
    """np.var(x, axis=0).sum() spelled out in the ufunc steps np.var takes:
    the column means, the squared deviations, their column means."""
    n = x.shape[0]
    d = x - x.sum(axis=0, keepdims=True) / n
    d *= d
    return float((d.sum(axis=0) / n).sum())


def oracle_bandwidth(batch_a, batch_b):
    """mmd_bandwidth from the spelled-out variance."""
    sigma2 = 0.5 * (total_variance(batch_a) + total_variance(batch_b))
    if sigma2 < 1e-12:
        sigma2 = 1.0
    return float(np.sqrt(sigma2))


class TestMmdLoss:
    @pytest.mark.parametrize("n, c", [(2, 3), (8, 4), (32, 32), (64, 16)])
    def test_gram_kernel_matches_broadcast_oracle(self, n, c):
        rng = np.random.default_rng(n * c)
        for _ in range(10):
            scale = float(rng.uniform(0.2, 3.0))
            bt = scale * rng.standard_normal((n, c))
            bs = scale * rng.standard_normal((n, c)) + rng.uniform(-1.0, 1.0)
            loss, grad, sigma = mmd_loss(bt, bs)
            o_loss, o_grad = broadcast_mmd(bt, bs, sigma)
            assert loss == pytest.approx(o_loss, abs=1e-12)
            assert np.linalg.norm(grad - o_grad) <= 1e-12 * max(1.0, np.linalg.norm(o_grad))

    def test_identical_batches_zero(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((5, 3))
        loss, grad, _ = mmd_loss(b, b.copy())
        assert loss == 0.0
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_single_pair_closed_form(self):
        bt = np.array([[1.0, 2.0]])
        bs = np.array([[0.0, 0.5]])
        sigma = 0.9
        loss, _, _ = mmd_loss(bt, bs, sigma=sigma)
        gap = np.sum((bt - bs) ** 2)
        assert loss == pytest.approx(2.0 - 2.0 * math.exp(-gap / (2 * sigma**2)), abs=1e-14)

    def test_matches_triple_loop_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            bt = rng.standard_normal((6, 4))
            bs = rng.standard_normal((6, 4))
            sigma = float(rng.uniform(0.5, 2.0))
            loss, _, _ = mmd_loss(bt, bs, sigma=sigma)
            assert loss == pytest.approx(brute_force_mmd(bt, bs, sigma), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        bt = rng.standard_normal((5, 3))
        bs = rng.standard_normal((5, 3))
        sigma = 1.1
        _, grad, _ = mmd_loss(bt, bs, sigma=sigma)
        numeric = fd_gradient(lambda x: mmd_loss(bt, x, sigma=sigma)[0], bs)
        assert max_rel_error(grad, numeric) <= 1e-4

    def test_parameter_gradient_through_mlp(self):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((4, 3))
        xt = rng.standard_normal((4, 3))
        teacher = MLP([3, 4, 2], seed=21)
        student = MLP([3, 4, 2], seed=22)
        bt = teacher.features(xs)
        sigma = 0.8

        fs, cache = student.forward(xt)
        _, gf, _ = mmd_loss(bt, fs, sigma=sigma)
        analytic = student.backward(cache, gf)
        numeric = fd_param_gradients(
            student, lambda: mmd_loss(bt, student.features(xt), sigma=sigma)[0])
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_value_symmetric_under_batch_swap(self):
        rng = np.random.default_rng(13)
        bt = rng.standard_normal((4, 3))
        bs = rng.standard_normal((4, 3))
        assert mmd_loss(bt, bs, sigma=1.0)[0] == pytest.approx(
            mmd_loss(bs, bt, sigma=1.0)[0], abs=1e-14)

    def test_independent_permutation_invariance(self):
        rng = np.random.default_rng(14)
        bt = rng.standard_normal((5, 3))
        bs = rng.standard_normal((5, 3))
        base, _, _ = mmd_loss(bt, bs, sigma=1.0)
        pt, ps = rng.permutation(5), rng.permutation(5)
        assert mmd_loss(bt[pt], bs[ps], sigma=1.0)[0] == pytest.approx(base, abs=1e-12)

    def test_non_negative_on_random_trials(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            bt = rng.standard_normal((3, 2))
            bs = rng.standard_normal((3, 2))
            assert mmd_loss(bt, bs)[0] >= -1e-12

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mmd_loss(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_bandwidth_estimate_and_fallback(self):
        rng = np.random.default_rng(16)
        ba = rng.standard_normal((6, 3))
        bb = rng.standard_normal((6, 3))
        expected = math.sqrt(0.5 * (np.var(ba, axis=0).sum() + np.var(bb, axis=0).sum()))
        assert mmd_bandwidth(ba, bb) == pytest.approx(expected, abs=1e-14)
        # constant batches degenerate to the unit fallback
        assert mmd_bandwidth(np.ones((4, 3)), np.ones((4, 3))) == 1.0

    @pytest.mark.parametrize("n, c", [(1, 3), (2, 1), (7, 5), (32, 32), (64, 16)])
    def test_bandwidth_matches_np_var_oracle_bit_for_bit(self, n, c):
        rng = np.random.default_rng(100 * n + c)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-4, 4)
            ba = scale * rng.standard_normal((n, c)) + rng.uniform(-50, 50, c)
            bb = scale * rng.standard_normal((n, c)) * rng.uniform(0, 2, c)
            assert mmd_bandwidth(ba, bb) == oracle_bandwidth(ba, bb)
            # random shapes around the fixed one
            m, k = (int(v) for v in rng.integers(1, 40, 2))
            ra, rb = rng.standard_normal((2, m, k)) * scale
            assert mmd_bandwidth(ra, rb) == oracle_bandwidth(ra, rb)
        # a constant feature column and a batch of repeated rows
        ba[:, 0] = 3.0
        bb[:] = bb[0]
        assert mmd_bandwidth(ba, bb) == oracle_bandwidth(ba, bb)
        # two constant batches, which fall back to the unit bandwidth
        ba[:] = ba[0]
        assert mmd_bandwidth(ba, bb) == oracle_bandwidth(ba, bb) == 1.0
