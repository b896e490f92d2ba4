import math

import numpy as np
import pytest

from streamreid.data import Domain, Split
from streamreid.evaluation import cmc_curve, evaluate, forgetting_metrics
from streamreid.pseudo import unit_rows
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


def sort_based_evaluate(query, gallery, extractor):
    """(mAP, CMC, n_queries, n_excluded) as evaluate computed them with a
    stable argsort of every query's row and each entry's rank a running
    count of the kept entries: the byte oracle for the value-sort ranks."""
    q_feats = extractor.features(query.descriptor_matrix())
    g_feats = extractor.features(gallery.descriptor_matrix())
    q_ids, q_cams = query.identities(), query.cameras()
    g_ids, g_cams = gallery.identities(), gallery.cameras()
    sims = unit_rows(q_feats, "query feature")[0] @ unit_rows(g_feats, "gallery feature")[0].T
    order = np.argsort(-sims, axis=1, kind="stable")
    same_id = g_ids[order] == q_ids[:, None]
    if len(set(q_cams.tolist()) | set(g_cams.tolist())) > 1:
        kept = ~(same_id & (g_cams[order] == q_cams[:, None]))
    else:
        kept = np.ones_like(same_id)
    matches = same_id & kept
    valid = matches.any(axis=1)
    if not valid.any():
        raise ValueError("no query has a valid gallery match under the protocol")
    matches = matches[valid]
    rank = np.cumsum(kept[valid], axis=1)
    precision = np.cumsum(matches, axis=1)[matches] / rank[matches]
    n_hits = matches.sum(axis=1)
    owner = np.repeat(np.arange(n_hits.size), n_hits)
    aps = np.empty(n_hits.size)
    for h in np.unique(n_hits):
        rows = n_hits == h
        aps[rows] = precision[rows[owner]].reshape(-1, h).mean(axis=1)
    first_match_ranks = rank[np.arange(rank.shape[0]), np.argmax(matches, axis=1)]
    return (float(np.mean(aps)), cmc_curve(first_match_ranks, len(gallery)),
            aps.size, int(valid.size - aps.size))


class TestRankGallery:
    """evaluate's ranking: descending cosine, ties to the lower gallery index."""

    def test_query_itself_ranks_first(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((10, 4))
        query = make_dataset(rows[3:4], [3], domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset(rows, np.arange(10), domain=Domain.TARGET,
                               split=Split.GALLERY)
        rep = evaluate(query, gallery, identity_extractor(4))
        assert rep.rank1 == 1.0 and rep.map_score == 1.0

    def test_tie_breaks_to_lower_index(self):
        # gallery rows 1 and 2 tie for the query; the true match is the
        # lower index (rank 1) or the higher one (rank 2)
        query = make_dataset([[2.0, 0.0]], [0], domain=Domain.TARGET, split=Split.QUERY)
        for ids, map_score, cmc in (([5, 0, 1], 1.0, [1.0, 1.0, 1.0]),
                                    ([5, 1, 0], 0.5, [0.0, 1.0, 1.0])):
            gallery = make_dataset([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], ids,
                                   domain=Domain.TARGET, split=Split.GALLERY)
            rep = evaluate(query, gallery, identity_extractor(2))
            assert rep.map_score == map_score
            assert rep.cmc.tolist() == cmc

    def test_matches_brute_force_sort(self):
        # the oracle sorts by (-similarity, index) in Python
        for seed in range(10):
            rng = np.random.default_rng(seed)
            query = make_dataset(rng.standard_normal((5, 6)), rng.integers(0, 4, 5),
                                 cameras=rng.integers(0, 2, 5),
                                 domain=Domain.TARGET, split=Split.QUERY)
            gallery = make_dataset(rng.standard_normal((20, 6)), rng.integers(0, 4, 20),
                                   cameras=rng.integers(0, 2, 20),
                                   domain=Domain.TARGET, split=Split.GALLERY)
            rep = evaluate(query, gallery, identity_extractor(6))
            o_map, o_cmc, o_excl = oracle_evaluate(query, gallery, cross_camera=True)
            assert rep.map_score == pytest.approx(o_map, abs=1e-12)
            assert np.allclose(rep.cmc, o_cmc, atol=1e-12)
            assert rep.n_excluded == o_excl

    def test_zero_norm_rejected(self):
        gallery = make_dataset(np.ones((3, 3)), [0, 1, 2], domain=Domain.TARGET,
                               split=Split.GALLERY)
        query = make_dataset(np.zeros((1, 3)), [0], domain=Domain.TARGET, split=Split.QUERY)
        with pytest.raises(ValueError, match="^zero-norm query feature row 0: "):
            evaluate(query, gallery, identity_extractor(3))
        rows = np.ones((3, 3))
        rows[2] = 0.0
        gallery = make_dataset(rows, [0, 1, 2], domain=Domain.TARGET, split=Split.GALLERY)
        query = make_dataset(np.ones((1, 3)), [0], domain=Domain.TARGET, split=Split.QUERY)
        with pytest.raises(ValueError, match="^zero-norm gallery feature row 2: "):
            evaluate(query, gallery, identity_extractor(3))


def random_retrieval(rng, n_ids, n_cameras, integer, exclude):
    """A random query/gallery pair; with exclude, the last query's identity
    has gallery rows only on that query's camera."""
    nq, ng, dim = int(rng.integers(1, 16)), int(rng.integers(2, 50)), int(rng.integers(2, 5))
    if integer:
        # few distinct directions, so many similarities tie exactly
        q_rows = rng.integers(-1, 2, (nq, dim)) + np.eye(dim)[0] * 2
        g_rows = rng.integers(-1, 2, (ng, dim)) + np.eye(dim)[0] * 2
    else:
        q_rows, g_rows = rng.standard_normal((nq, dim)), rng.standard_normal((ng, dim))
    q_ids, g_ids = rng.integers(0, n_ids, nq), rng.integers(0, n_ids, ng)
    q_cams, g_cams = rng.integers(0, n_cameras, nq), rng.integers(0, n_cameras, ng)
    if exclude:
        q_ids[-1], q_cams[-1] = n_ids, 0
        g_ids[0], g_cams[0] = n_ids, 0
    return (make_dataset(q_rows, q_ids, cameras=q_cams, domain=Domain.TARGET,
                         split=Split.QUERY),
            make_dataset(g_rows, g_ids, cameras=g_cams, domain=Domain.TARGET,
                         split=Split.GALLERY))


class TestEvaluateByteOracle:
    """evaluate's bytes against the stable-argsort oracle. A 600 x 600
    evaluation took 32-43 ms with the argsort and 7.7-11.9 ms with the
    selection (OpenBLAS on one thread, a shared 2-core x86 machine, ranges
    over repeats)."""

    # a gallery of two identities: every query's identity fills about
    # half of it
    @pytest.mark.parametrize("n_ids", [2, 5])
    @pytest.mark.parametrize("n_cameras", [1, 2, 3])
    @pytest.mark.parametrize("integer", [False, True], ids=["real", "ties"])
    def test_bytes_match_sort_based_oracle(self, n_ids, n_cameras, integer):
        rng = np.random.default_rng(1000 * n_ids + 10 * n_cameras + integer)
        seen_excluded = seen_multi = 0
        for trial in range(60):
            query, gallery = random_retrieval(rng, n_ids, n_cameras, integer,
                                              exclude=n_cameras > 1 and trial % 3 == 0)
            extractor = identity_extractor(query.descriptor_matrix().shape[1])
            try:
                expected = sort_based_evaluate(query, gallery, extractor)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    evaluate(query, gallery, extractor)
                continue
            rep = evaluate(query, gallery, extractor)
            assert np.float64(rep.map_score).tobytes() == np.float64(expected[0]).tobytes()
            assert rep.cmc.tobytes() == expected[1].tobytes()
            assert (rep.n_queries, rep.n_excluded) == expected[2:]
            seen_excluded += rep.n_excluded > 0
            seen_multi += np.count_nonzero(gallery.identities() == query.identities()[0]) > 1
        assert seen_multi > 0
        assert seen_excluded > 0 or n_cameras == 1

    def test_nan_feature_ranks_last_as_the_stable_sort_does(self):
        # a non-finite feature gives NaN similarities, which the stable
        # argsort places after every number, among themselves by index
        class NanRows:
            def __init__(self, q_rows, g_rows):
                self.rows = [q_rows, g_rows]

            def features(self, x):
                x = np.array(x, dtype=np.float64)
                x[self.rows.pop(0)] = np.nan
                return x

        rng = np.random.default_rng(8)
        for _ in range(40):
            query, gallery = random_retrieval(rng, 3, 2, integer=True, exclude=False)
            nan_q = rng.random(len(query)) < 0.2
            nan_g = rng.random(len(gallery)) < 0.3
            with np.errstate(invalid="ignore"):
                try:
                    expected = sort_based_evaluate(query, gallery, NanRows(nan_q, nan_g))
                except ValueError:
                    continue
                rep = evaluate(query, gallery, NanRows(nan_q, nan_g))
            assert rep.map_score == expected[0]
            assert rep.cmc.tobytes() == expected[1].tobytes()
            assert (rep.n_queries, rep.n_excluded) == expected[2:]


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

    @pytest.mark.parametrize("n_cameras", [1, 3])
    def test_whole_matrix_matches_oracle(self, n_cameras):
        # few identities, so most queries have several true matches; the
        # last query's identity has gallery rows only on its own camera,
        # so with cameras every match is junk and the query is excluded
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            nq, ng, n_ids = int(rng.integers(4, 12)), int(rng.integers(20, 60)), 4
            q_ids = rng.integers(0, n_ids, nq)
            g_ids = rng.integers(0, n_ids, ng)
            q_cams = rng.integers(0, n_cameras, nq)
            g_cams = rng.integers(0, n_cameras, ng)
            q_ids[-1], q_cams[-1] = n_ids, 0
            g_ids[:3], g_cams[:3] = n_ids, 0
            query = make_dataset(rng.standard_normal((nq, 5)), q_ids, cameras=q_cams,
                                 domain=Domain.TARGET, split=Split.QUERY)
            gallery = make_dataset(rng.standard_normal((ng, 5)), g_ids, cameras=g_cams,
                                   domain=Domain.TARGET, split=Split.GALLERY)
            rep = evaluate(query, gallery, identity_extractor(5))
            o_map, o_cmc, o_excl = oracle_evaluate(query, gallery,
                                                   cross_camera=n_cameras > 1)
            assert rep.map_score == pytest.approx(o_map, abs=1e-12)
            assert np.allclose(rep.cmc, o_cmc, atol=1e-12)
            assert rep.n_excluded == o_excl
            assert rep.n_queries + rep.n_excluded == nq
            if n_cameras > 1:
                assert o_excl >= 1
            else:
                assert o_excl == 0

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
        summary = forgetting_metrics({0: [(0, 0.5)]})
        assert math.isnan(summary.score)
        assert summary.per_slice == {}

    def test_missing_final_measurement_rejected(self):
        hist = {0: [(0, 0.8)], 1: [(1, 0.9)]}
        with pytest.raises(ValueError, match="final measurement"):
            forgetting_metrics(hist)

    def test_history_must_start_at_own_task(self):
        hist = {0: [(1, 0.8), (2, 0.6)], 1: [(1, 0.9), (2, 0.9)], 2: [(2, 0.9)]}
        with pytest.raises(ValueError, match="start right after"):
            forgetting_metrics(hist)
