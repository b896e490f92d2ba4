import numpy as np
import pytest

from streamreid.data import (AffineShift, Dataset, Domain, FeatureFileError,
                             Sample, Split, SynthConfig, generate_synthetic,
                             load_feature_file, random_affine_shift,
                             save_feature_file, split_stream)
from tests.conftest import make_dataset, make_sample


def base_cfg(**overrides):
    kw = dict(
        n_identities_source=6, n_identities_target=5, samples_per_identity=8,
        d_in=4, intra_class_std=0.05, domain_shift=AffineShift.identity(4),
        camera_count=2, camera_jitter_std=0.0, seed=3,
    )
    kw.update(overrides)
    return SynthConfig(**kw)


def splits(res):
    return res.source, res.target_train, res.target_query, res.target_gallery


def is_identity_shift(shift):
    d = shift.matrix.shape[0]
    return np.array_equal(shift.matrix, np.eye(d)) and not shift.offset.any()


class TestGenerateSynthetic:
    def test_zero_noise_collapses_identities(self):
        res = generate_synthetic(base_cfg(intra_class_std=0.0, camera_jitter_std=0.0))
        for ident in range(6):
            rows = [s.descriptor for s in res.source.samples if s.identity == ident]
            for r in rows[1:]:
                assert np.array_equal(r, rows[0])

    def test_determinism_bit_identical(self):
        a = generate_synthetic(base_cfg(seed=42))
        b = generate_synthetic(base_cfg(seed=42))
        for ds_a, ds_b in zip(splits(a), splits(b)):
            assert ds_a.descriptor_matrix().tobytes() == ds_b.descriptor_matrix().tobytes()
            assert np.array_equal(ds_a.identities(), ds_b.identities())
            assert np.array_equal(ds_a.cameras(), ds_b.cameras())

    def test_target_sample_count_bookkeeping(self):
        # 50 identities x 8 samples must land in train/query/gallery exactly once
        res = generate_synthetic(base_cfg(n_identities_target=50))
        total = len(res.target_train) + len(res.target_query) + len(res.target_gallery)
        assert total == 50 * 8
        # enumeration per identity: 1 query, 1 gallery, 6 train
        for ident in range(50):
            n_tr = sum(1 for s in res.target_train.samples if s.identity == ident)
            n_q = sum(1 for s in res.target_query.samples if s.identity == ident)
            n_g = sum(1 for s in res.target_gallery.samples if s.identity == ident)
            assert (n_tr, n_q, n_g) == (6, 1, 1)

    def test_query_gallery_cross_camera(self):
        res = generate_synthetic(base_cfg())
        q_cam = {s.identity: s.camera for s in res.target_query.samples}
        g_cam = {s.identity: s.camera for s in res.target_gallery.samples}
        for ident in q_cam:
            assert q_cam[ident] != g_cam[ident]

    def test_rejects_degenerate_separation(self):
        with pytest.raises(ValueError, match="separation ratio"):
            generate_synthetic(base_cfg(intra_class_std=50.0))

    def test_reports_separation_ratio(self):
        res = generate_synthetic(base_cfg())
        assert res.separation_ratio > 1.0
        assert generate_synthetic(base_cfg(intra_class_std=0.0)).separation_ratio == np.inf

    def test_identity_shift_is_exposed_and_exact(self):
        res = generate_synthetic(base_cfg())
        assert is_identity_shift(res.domain_shift)
        shifted = random_affine_shift(4, 0.5, seed=1)
        assert not is_identity_shift(shifted)

    def test_domains_tagged(self):
        res = generate_synthetic(base_cfg())
        assert res.source.domain is Domain.SOURCE
        for ds in (res.target_train, res.target_query, res.target_gallery):
            assert ds.domain is Domain.TARGET


class TestAffineShift:
    def test_magnitude_zero_is_identity(self):
        shift, ident = random_affine_shift(5, 0.0, seed=9), AffineShift.identity(5)
        assert np.array_equal(shift.matrix, ident.matrix)
        assert np.array_equal(shift.offset, ident.offset)

    def test_condition_number_capped(self):
        for seed in range(10):
            shift = random_affine_shift(8, 2.5, seed=seed)
            s = np.linalg.svd(shift.matrix, compute_uv=False)
            assert s.max() / s.min() <= 10.0 + 1e-9

    def test_apply_matches_direct_formula(self):
        shift = random_affine_shift(3, 1.0, seed=4)
        x = np.random.default_rng(0).standard_normal((7, 3))
        assert np.allclose(shift.apply(x), x @ shift.matrix.T + shift.offset)


class TestSplitStream:
    def _dataset(self, n_ids, per_id=4):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((n_ids * per_id, 2))
        ids = np.repeat(np.arange(n_ids), per_id)
        return make_dataset(rows, ids, domain=Domain.TARGET)

    def test_singleton_partition(self):
        stream = split_stream(self._dataset(5), n_tasks=5, seed=0)
        assert len(stream.tasks) == 5
        assert all(len(t.identity_set()) == 1 for t in stream.tasks)

    def test_near_equal_sizes_751(self):
        stream = split_stream(self._dataset(751), n_tasks=5, seed=1)
        sizes = sorted(len(t.identity_set()) for t in stream.tasks)
        assert sizes == [150, 150, 150, 150, 151]

    def test_same_seed_same_partition(self):
        a = split_stream(self._dataset(20), 4, seed=7)
        b = split_stream(self._dataset(20), 4, seed=7)
        assert [t.identity_set() for t in a.tasks] == [t.identity_set() for t in b.tasks]

    def test_partition_is_exact_cover(self):
        ds = self._dataset(23)
        for seed in range(10):
            for n_tasks in (2, 3, 5, 23):
                stream = split_stream(ds, n_tasks, seed=seed)
                sets = [t.identity_set() for t in stream.tasks]
                union = set().union(*sets)
                assert union == ds.identity_set()
                assert sum(len(s) for s in sets) == len(union)
                # all samples of each identity travel together
                for t in stream.tasks:
                    for ident in t.identity_set():
                        assert sum(1 for s in t.samples if s.identity == ident) == 4

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ValueError, match="n_tasks"):
            split_stream(self._dataset(3), 4, seed=0)


class TestFeatureFile:
    def test_small_file_parses(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text(
            "D_IN 4 DOMAIN source SPLIT train\n"
            "0\t0\t1.0,2.0,3.0,4.0\n"
            "0\t1\t1.5,2.5,3.5,4.5\n"
            "1\t0\t-1.0,0.0,0.5,0.25\n"
        )
        ds = load_feature_file(p)
        assert len(ds) == 3
        assert ds.samples[0].descriptor.shape == (4,)
        assert ds.domain is Domain.SOURCE and ds.split is Split.TRAIN

    def test_nan_entry_names_record(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text(
            "D_IN 2 DOMAIN target SPLIT query\n"
            "0\t0\t1.0,2.0\n"
            "1\t0\t1.0,nan\n"
        )
        with pytest.raises(FeatureFileError, match="record 1"):
            load_feature_file(p)

    def test_dimension_mismatch_names_record(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("D_IN 3 DOMAIN target SPLIT train\n0\t0\t1.0,2.0\n")
        with pytest.raises(FeatureFileError, match="record 0"):
            load_feature_file(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("DIM 3 source train\n")
        with pytest.raises(FeatureFileError, match="header"):
            load_feature_file(p)

    def test_round_trip_identity(self, tmp_path, small_synth):
        for name, ds in [("src", small_synth.source), ("q", small_synth.target_query)]:
            p = tmp_path / f"{name}.txt"
            save_feature_file(p, ds)
            back = load_feature_file(p)
            assert len(back) == len(ds)
            assert back.split is ds.split and back.domain is ds.domain
            assert np.array_equal(back.descriptor_matrix(), ds.descriptor_matrix())
            assert np.array_equal(back.identities(), ds.identities())
            assert np.array_equal(back.cameras(), ds.cameras())


class TestInvariants:
    def test_sample_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_sample([1.0, np.nan])

    def test_sample_descriptor_immutable(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.descriptor[0] = 5.0

    def test_train_split_needs_two_samples_per_identity(self):
        ds = make_dataset([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [0, 0, 1])
        with pytest.raises(ValueError, match="fewer than 2"):
            ds.validate()

    def test_mixed_domain_rejected(self):
        samples = [make_sample([1.0], domain=Domain.SOURCE),
                   make_sample([2.0], domain=Domain.TARGET)]
        with pytest.raises(ValueError, match="mixes domains"):
            Dataset(samples, Split.TRAIN).validate()
