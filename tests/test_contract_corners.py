"""Edge-of-contract checks that the per-module suites do not pin down."""

import numpy as np
import pytest

from streamreid.cli import cmd_sweep, parse_config
from streamreid.data import Domain, FeatureFileError, load_feature_file
from streamreid.distill import select_support
from streamreid.mlp import MLP, save_checkpoint
from streamreid.runlog import RunLog
from streamreid.trainer import RunConfig
from tests.conftest import identity_extractor, make_dataset
from tests.test_cli import TINY, tiny_cfg


class TestSelectSupportTieBreak:
    def test_equal_similarity_prefers_lowest_source_index(self):
        ext = identity_extractor(2)
        # identical vectors under identities 7 and 3; index 0 must win
        source = make_dataset([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [7, 3, 1])
        target = make_dataset([[1.0, 0.0]], [0], domain=Domain.TARGET)
        assert select_support(target, source, ext).identities() == {7}

    def test_tie_break_is_scale_free(self):
        ext = identity_extractor(2)
        source = make_dataset([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [7, 3, 1])
        target = make_dataset([[0.5, 0.0]], [0], domain=Domain.TARGET)
        # cosine ties regardless of magnitude; index 0 still wins
        assert select_support(target, source, ext).identities() == {7}


class TestCheckpointBytes:
    def test_save_is_byte_deterministic(self, tmp_path):
        m = MLP([4, 3, 2], seed=3)
        save_checkpoint(tmp_path / "a.ckpt", m.params)
        save_checkpoint(tmp_path / "b.ckpt", m.params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestFeatureFileEdges:
    def test_negative_identity_rejected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("D_IN 2 DOMAIN source SPLIT train\n-1\t0\t1.0,2.0\n")
        with pytest.raises(FeatureFileError, match="record 0"):
            load_feature_file(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("")
        with pytest.raises(FeatureFileError, match="empty"):
            load_feature_file(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("D_IN 2 DOMAIN source SPLIT train\n")
        with pytest.raises(FeatureFileError, match="no records"):
            load_feature_file(p)


class TestRunlogLoading:
    def test_missing_files_reported_as_incomplete(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="incomplete"):
            RunLog.load(str(tmp_path))


class TestSweepDataSeeding:
    def test_default_redraws_data_per_seed(self, tmp_path):
        cmd_sweep(tiny_cfg(label="s"), seeds=[0, 1], out_root=str(tmp_path))
        a = RunLog.load(str(tmp_path / "seed0"))
        b = RunLog.load(str(tmp_path / "seed1"))
        assert a.config["synth_seed"] == "0"
        assert b.config["synth_seed"] == "1"

    def test_opt_out_keeps_one_dataset(self, tmp_path):
        cfg = tiny_cfg(seed_data_with_run="false", synth_seed="42")
        cmd_sweep(cfg, seeds=[0, 1], out_root=str(tmp_path))
        for seed in (0, 1):
            lg = RunLog.load(str(tmp_path / f"seed{seed}"))
            assert lg.config["synth_seed"] == "42"


class TestConfigSnapshotCompleteness:
    def test_every_trainer_field_has_a_config_key(self):
        import dataclasses
        from streamreid.cli import ExperimentConfig
        exp_keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for f in dataclasses.fields(RunConfig):
            assert f.name in exp_keys, f"RunConfig.{f.name} not exposed to the CLI"
