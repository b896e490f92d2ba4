import numpy as np
import pytest

from streamreid.data import Domain, Split
from streamreid.evaluation import (cmc_curve, evaluate, forgetting_metrics,
                                   rank_gallery)
from tests.conftest import identity_extractor, make_dataset


# ---------------------------------------------------------------------------
# Definitional oracle: explicit loops straight from the metric definitions.
# ---------------------------------------------------------------------------

def oracle_ap_cmc(q_vec, q_id, q_cam, g_vecs, g_ids, g_cams, cross_camera):
    sims = []
    for i, g in enumerate(g_vecs):
        c = float(np.dot(q_vec, g) / (np.linalg.norm(q_vec) * np.linalg.norm(g)))
        sims.append((c, i))
    ranked = [i for _, i in sorted(sims, key=lambda t: (-t[0], t[1]))]
    if cross_camera:
        ranked = [i for i in ranked
                  if not (g_ids[i] == q_id and g_cams[i] == q_cam)]
    hits = [pos + 1 for pos, i in enumerate(ranked) if g_ids[i] == q_id]
    if not hits:
        return None, None
    ap = sum((k + 1) / r for k, r in enumerate(hits)) / len(hits)
    return ap, hits[0]


def oracle_evaluate(query, gallery, cross_camera):
    q_mat, g_mat = query.descriptor_matrix(), gallery.descriptor_matrix()
    q_ids, q_cams = query.identities(), query.cameras()
    g_ids, g_cams = gallery.identities(), gallery.cameras()
    aps, first_ranks, excluded = [], [], 0
    for qi in range(len(query)):
        ap, first = oracle_ap_cmc(q_mat[qi], q_ids[qi], q_cams[qi],
                                  g_mat, g_ids, g_cams, cross_camera)
        if ap is None:
            excluded += 1
        else:
            aps.append(ap)
            first_ranks.append(first)
    cmc = [np.mean([r <= rank for r in first_ranks])
           for rank in range(1, len(gallery) + 1)]
    return float(np.mean(aps)), np.array(cmc), excluded


class TestRankGallery:
    def test_query_itself_ranks_first(self):
        rng = np.random.default_rng(0)
        gallery = rng.standard_normal((10, 4))
        order = rank_gallery(gallery[3:4], gallery)
        assert order[0, 0] == 3

    def test_tie_breaks_to_lower_index(self):
        gallery = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        order = rank_gallery(np.array([[2.0, 0.0]]), gallery)
        assert order[0].tolist() == [1, 2, 0]

    def test_matches_brute_force_sort(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal((5, 6))
            g = rng.standard_normal((20, 6))
            order = rank_gallery(q, g)
            for qi in range(5):
                sims = [(float(np.dot(q[qi], g[i])
                         / (np.linalg.norm(q[qi]) * np.linalg.norm(g[i]))), i)
                        for i in range(20)]
                expected = [i for _, i in sorted(sims, key=lambda t: (-t[0], t[1]))]
                assert order[qi].tolist() == expected

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            rank_gallery(np.zeros((1, 3)), np.ones((2, 3)))


class TestEvaluate:
    def test_perfect_match_at_rank_one(self):
        query = make_dataset([[1.0, 0.0]], [0], domain=Domain.TARGET,
                             split=Split.QUERY)
        gallery = make_dataset([[0.9, 0.1], [0.0, 1.0]], [0, 1],
                               domain=Domain.TARGET, split=Split.GALLERY)
        rep = evaluate(query, gallery, identity_extractor(2))
        assert rep.map_score == 1.0
        assert rep.rank1 == 1.0

    def test_single_true_match_at_rank_two(self):
        # 2 gallery items, the true match ranked second: AP = 0.5, CMC = [0, 1]
        query = make_dataset([[1.0, 0.0]], [0], domain=Domain.TARGET,
                             split=Split.QUERY)
        gallery = make_dataset([[0.99, 0.01], [0.5, 0.5]], [1, 0],
                               domain=Domain.TARGET, split=Split.GALLERY)
        rep = evaluate(query, gallery, identity_extractor(2))
        assert rep.map_score == pytest.approx(0.5, abs=0)
        assert rep.cmc.tolist() == [0.0, 1.0]

    def test_matches_definitional_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            nq, ng = int(rng.integers(3, 10)), int(rng.integers(20, 50))
            n_ids = 6
            query = make_dataset(rng.standard_normal((nq, 5)),
                                 rng.integers(0, n_ids, nq),
                                 cameras=rng.integers(0, 3, nq),
                                 domain=Domain.TARGET, split=Split.QUERY)
            gallery = make_dataset(rng.standard_normal((ng, 5)),
                                   rng.integers(0, n_ids, ng),
                                   cameras=rng.integers(0, 3, ng),
                                   domain=Domain.TARGET, split=Split.GALLERY)
            rep = evaluate(query, gallery, identity_extractor(5))
            o_map, o_cmc, o_excl = oracle_evaluate(query, gallery, cross_camera=True)
            assert rep.map_score == pytest.approx(o_map, abs=1e-12)
            assert np.allclose(rep.cmc, o_cmc, atol=1e-12)
            assert rep.n_excluded == o_excl

    def test_cmc_curve_matches_per_rank_means(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n_gallery = int(rng.integers(1, 80))
            ranks = rng.integers(1, n_gallery + 1, size=int(rng.integers(1, 50)))
            expected = np.array([(ranks <= r).mean() for r in range(1, n_gallery + 1)])
            got = cmc_curve(ranks.tolist(), n_gallery)
            assert got.shape == (n_gallery,)
            assert got.tobytes() == expected.tobytes()

    def test_cmc_monotone_and_saturating(self):
        rng = np.random.default_rng(40)
        query = make_dataset(rng.standard_normal((8, 4)), np.arange(8) % 4,
                             domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset(rng.standard_normal((30, 4)),
                               rng.integers(0, 4, 30), cameras=np.ones(30, int),
                               domain=Domain.TARGET, split=Split.GALLERY)
        rep = evaluate(query, gallery, identity_extractor(4))
        assert np.all(np.diff(rep.cmc) >= 0)
        assert rep.cmc[-1] == 1.0

    def test_same_camera_true_matches_are_junk(self):
        # the only same-identity entries share the query camera: query excluded
        query = make_dataset([[1.0, 0.0]], [0], cameras=[0],
                             domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], cameras=[0, 1],
                               domain=Domain.TARGET, split=Split.GALLERY)
        with pytest.raises(ValueError, match="no query"):
            evaluate(query, gallery, identity_extractor(2))

    def test_excluded_queries_counted(self):
        query = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], cameras=[0, 0],
                             domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset([[1.0, 0.1], [0.1, 1.0]], [0, 1], cameras=[0, 1],
                               domain=Domain.TARGET, split=Split.GALLERY)
        # identity 0's only match shares camera 0 -> excluded; identity 1 fine
        rep = evaluate(query, gallery, identity_extractor(2))
        assert rep.n_queries == 1
        assert rep.n_excluded == 1

    def test_single_camera_disables_exclusion(self):
        query = make_dataset([[1.0, 0.0]], [0], cameras=[0],
                             domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], cameras=[0, 0],
                               domain=Domain.TARGET, split=Split.GALLERY)
        rep = evaluate(query, gallery, identity_extractor(2))
        assert rep.map_score == 1.0

    def test_ranking_invariant_under_rotation_and_scale(self):
        rng = np.random.default_rng(41)
        q_rows = rng.standard_normal((6, 4))
        g_rows = rng.standard_normal((25, 4))
        ids_q = rng.integers(0, 5, 6)
        ids_g = rng.integers(0, 5, 25)
        base = evaluate(make_dataset(q_rows, ids_q, domain=Domain.TARGET, split=Split.QUERY),
                        make_dataset(g_rows, ids_g, domain=Domain.TARGET, split=Split.GALLERY),
                        identity_extractor(4))
        quat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for transform in (lambda x: 3.7 * x, lambda x: x @ quat.T):
            rep = evaluate(
                make_dataset(transform(q_rows), ids_q, domain=Domain.TARGET, split=Split.QUERY),
                make_dataset(transform(g_rows), ids_g, domain=Domain.TARGET, split=Split.GALLERY),
                identity_extractor(4))
            assert rep.map_score == pytest.approx(base.map_score, abs=1e-12)
            assert np.allclose(rep.cmc, base.cmc, atol=1e-12)


class TestForgettingMetrics:
    def test_constant_performance_scores_zero(self):
        hist = {0: [(0, 0.7), (1, 0.7), (2, 0.7)],
                1: [(1, 0.6), (2, 0.6)],
                2: [(2, 0.8)]}
        summary = forgetting_metrics(hist)
        assert summary.score == 0.0
        assert summary.per_slice == {0: 0.0, 1: 0.0}

    def test_drop_contributes_negative(self):
        hist = {0: [(0, 0.8), (1, 0.6)], 1: [(1, 0.9)]}
        summary = forgetting_metrics(hist)
        assert summary.per_slice[0] == pytest.approx(-0.2, abs=1e-12)
        assert summary.score == pytest.approx(-0.2, abs=1e-12)

    def test_requires_two_tasks(self):
        with pytest.raises(ValueError, match="at least 2"):
            forgetting_metrics({0: [(0, 0.5)]})

    def test_missing_final_measurement_rejected(self):
        hist = {0: [(0, 0.8)], 1: [(1, 0.9)]}
        with pytest.raises(ValueError, match="final measurement"):
            forgetting_metrics(hist)

    def test_history_must_start_at_own_task(self):
        hist = {0: [(1, 0.8), (2, 0.6)], 1: [(1, 0.9), (2, 0.9)], 2: [(2, 0.9)]}
        with pytest.raises(ValueError, match="start right after"):
            forgetting_metrics(hist)
