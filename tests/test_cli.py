import dataclasses
import math
import os
import re
import warnings

import numpy as np
import pytest

from streamreid import cli
from streamreid.cli import (ConfigError, ExperimentConfig, cmd_audit,
                            cmd_emit_curves, cmd_eval, cmd_gen_data, cmd_grid,
                            cmd_run, main, parse_config)
from streamreid.data import load_feature_file
from streamreid.distill import SupportMode
from streamreid.mlp import MLP, ClassifierHead, save_checkpoint
from streamreid.runlog import (CLUSTER_HEADER, LOSS_HEADER, METRIC_HEADER, ReidMode,
                               RunLog, TeacherMode)

TINY = {
    "synth_source_ids": "12", "synth_target_ids": "12",
    "synth_samples_per_id": "6", "synth_dim": "8",
    "synth_intra_std": "0.08", "synth_camera_jitter": "0.03",
    "synth_shift_kind": "identity",
    "n_tasks": "2", "epochs_per_task": "3", "pretrain_epochs": "4",
    "batch_p": "4", "batch_k": "2", "lr": "0.002",
    "dbscan_percentile": "20.0", "dbscan_min_pts": "2", "min_cluster_size": "2",
    "hidden_dims": "16,8",
}


# the least value of each int key
INT_FLOORS = {"n_tasks": 1, "epochs_per_task": 1, "pretrain_epochs": 0, "batch_p": 2,
              "batch_k": 1, "support_cap": 0, "dbscan_min_pts": 1, "min_cluster_size": 1,
              "seed": 0, "synth_source_ids": 1, "synth_target_ids": 1,
              "synth_samples_per_id": 4, "synth_dim": 1, "synth_cameras": 1,
              "synth_shift_seed": 0, "synth_strong_dims": 0, "synth_seed": 0}

# each float key at its least value, and the ones bounded above (alpha,
# memory_momentum, dbscan_percentile) also at their greatest; synth_weak_scale
# matters only with strong dimensions
FLOAT_FLOORS = [
    *({key: "0"} for key in ("weight_decay", "lambda_kd", "lambda_mmd", "triplet_margin",
                             "synth_intra_std", "synth_camera_jitter",
                             "synth_shift_offset")),
    *({key: value} for key in ("alpha", "memory_momentum")
      for value in ("0", repr(math.nextafter(1.0, 0.0)))),
    *({key: "5e-324"} for key in ("lr", "memory_temperature", "dbscan_percentile")),
    {"synth_weak_scale": "5e-324", "synth_strong_dims": "8"},
    {"dbscan_percentile": repr(math.nextafter(100.0, 0.0))},
]

BENCHMARK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
# the benchmark config cut to two one-epoch tasks
TINY_STREAM = ["--n_tasks", "2", "--epochs_per_task", "1", "--pretrain_epochs", "1"]


# one bad data key each (named first), with any key it needs to matter
BAD_DATA_KEYS = [
    {"synth_source_ids": "0"}, {"synth_target_ids": "0"},
    {"synth_samples_per_id": "3"}, {"synth_dim": "0"}, {"synth_cameras": "0"},
    {"synth_intra_std": "-0.1"}, {"synth_camera_jitter": "-0.1"},
    {"synth_shift_offset": "-0.5"}, {"synth_strong_dims": "-3"},
    {"synth_seed": "-1"}, {"synth_shift_seed": "-1"},
    {"synth_shift_kind": "bogus"}, {"data_mode": "bogus"},
    {"synth_weak_scale": "0", "synth_strong_dims": "8"},
    {"synth_weak_scale": "1.5", "synth_strong_dims": "8"},
    # the synthetic keys are checked in files mode too
    {"synth_dim": "0", "data_mode": "files"},
]


def file_keys(data_dir, **paths):
    """data_mode=files keys reading gen-data's output in data_dir; keyword
    arguments replace single paths."""
    keys = {key: str(data_dir / name) for key, name in (
        ("data_source_file", "source_train.txt"),
        ("data_target_train_file", "target_train.txt"),
        ("data_target_query_file", "target_query.txt"),
        ("data_target_gallery_file", "target_gallery.txt"))}
    keys.update(paths)
    return dict(keys, data_mode="files")


def flags(overrides):
    return [arg for key, value in overrides.items() for arg in (f"--{key}", value)]


def tiny_cfg(**extra):
    overrides = dict(TINY)
    overrides.update({k: str(v) for k, v in extra.items()})
    return parse_config(None, overrides)


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("# nothing but a comment\n\n")
        cfg = parse_config(str(p))
        assert cfg.n_tasks == 5
        assert cfg.alpha == 0.999
        assert cfg.lr == 3.5e-4
        assert cfg.epochs_per_task == 20
        assert cfg.batch_p == 16 and cfg.batch_k == 4
        assert cfg.weight_decay == 5e-4
        assert cfg.lambda_kd == 1.0 and cfg.lambda_mmd == 1.0

    def test_flag_override_beats_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lambda_kd = 1.0\n")
        cfg = parse_config(str(p), {"lambda_kd": "0.5"})
        assert cfg.lambda_kd == 0.5

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(None, {"alpha": "1.0"})

    def test_unknown_key_rejected_with_location(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no_such_key = 3\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            parse_config(str(p))
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(None, {"bogus": "1"})

    def test_type_mismatch_names_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_tasks = banana\n")
        with pytest.raises(ConfigError, match="n_tasks"):
            parse_config(str(p))

    @pytest.mark.parametrize("key,value", [
        ("reid_mode", "Bogus"), ("support_mode", "Nearest"),
        ("teacher_mode", "iterema"), ("enable_kd", "maybe"),
        ("hidden_dims", "64,x"), ("lr", "fast"),
        # a dimension below 1, and an empty element
        *(("hidden_dims", v) for v in ("0", "-5", "64,0", "16, -1", "64,,32",
                                       "64,", ",64", "64, ,32", ""))])
    def test_bad_value_fails_at_parse_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(None, {key: value})

    @pytest.mark.parametrize("value,error", [
        ("0", "hidden_dims must be >= 1, got 0"),
        ("-5", "hidden_dims must be >= 1, got -5"),
        ("16, -1", "hidden_dims must be >= 1, got 16,-1"),
        ("64,,32", "key hidden_dims: empty element in '64,,32'"),
        ("", "key hidden_dims: empty element in ''")])
    def test_bad_hidden_dims_fail_before_the_run(self, tmp_path, capsys, value, error):
        out = tmp_path / "r"
        assert main(["run", "--out", str(out)] + flags(dict(TINY, hidden_dims=value))) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                     if isinstance(f.default, float)])
    def test_non_finite_float_rejected_naming_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            parse_config(None, {key: value})

    @pytest.mark.parametrize("overrides", BAD_DATA_KEYS,
                             ids=lambda ov: ",".join(f"{k}={v}" for k, v in ov.items()))
    def test_bad_data_key_rejected_naming_the_key(self, overrides):
        key = next(iter(overrides))
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config(None, overrides)

    def test_hash_after_whitespace_starts_a_comment(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\nlabel = run#1  # trailing comment\n"
                     "lr = 0.5\t# tab before the comment\n")
        cfg = parse_config(str(p))
        assert cfg.label == "run#1"
        assert cfg.lr == 0.5
        # the snapshot written as config.txt replays the same value
        replay = tmp_path / "config.txt"
        replay.write_text("".join(f"{k} = {v}\n" for k, v in cfg.snapshot().items()))
        assert parse_config(str(replay)) == cfg

    @pytest.mark.parametrize("value", ["run #1", "#1", "a\tb #c", "a\nb", "r\u00e9"])
    def test_unreplayable_value_rejected(self, value):
        with pytest.raises(ConfigError, match="key label"):
            parse_config(None, {"label": value})

    def test_snapshot_is_canonical(self):
        snap = tiny_cfg(hidden_dims="16, 8", reid_mode="StrongBaseline").snapshot()
        assert snap["hidden_dims"] == "16,8"
        assert snap["reid_mode"] == "StrongBaseline"
        assert snap["enable_kd"] == "true"
        assert snap["lr"] == "0.002"

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/path.cfg")

    def test_snapshot_round_trips(self):
        cfg = tiny_cfg(label="x")
        snap = cfg.snapshot()
        back = parse_config(None, snap)
        assert back == cfg


class TestGenData:
    def test_writes_loadable_files(self, tmp_path):
        ratio = cmd_gen_data(tiny_cfg(), str(tmp_path))
        assert ratio > 1.0
        for name in ("source_train", "target_train", "target_query",
                     "target_gallery"):
            ds = load_feature_file(tmp_path / f"{name}.txt")
            assert len(ds) > 0


class TestCmdRun:
    def test_artifacts_and_byte_determinism(self, tmp_path):
        cfg = tiny_cfg(label="det")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        cmd_run(cfg, str(dir_a))
        cmd_run(cfg, str(dir_b))
        for name in ("losses.csv", "metrics.csv", "clustering.csv", "config.txt"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_runlog_reload_round_trip(self, tmp_path):
        cfg = tiny_cfg(label="reload")
        log = cmd_run(cfg, str(tmp_path / "r"))
        back = RunLog.load(str(tmp_path / "r"))
        assert back.config == cfg
        assert [r.to_csv() for r in back.loss_rows] == \
            [r.to_csv() for r in log.loss_rows]
        assert [r.to_csv() for r in back.eval_rows] == \
            [r.to_csv() for r in log.eval_rows]
        assert [r.to_csv() for r in back.cluster_rows] == \
            [r.to_csv() for r in log.cluster_rows]
        assert back.cluster_rows

    @pytest.mark.parametrize("values", [
        {"lr": 5e-324, "memory_temperature": 5e-324, "lambda_kd": 1e308,
         "synth_shift_magnitude": -1e308, "synth_intra_std": 1e308},
        {"hidden_dims": (7,)},
        {"label": ""},
        {"label": "run#1"},
        {"enable_kd": False, "accumulate_support": True, "seed_data_with_run": False},
        *({key: member} for key, enum in (("reid_mode", ReidMode),
                                          ("support_mode", SupportMode),
                                          ("teacher_mode", TeacherMode))
          for member in enum)], ids=repr)
    def test_saved_config_loads_back_equal(self, tmp_path, values):
        cfg = dataclasses.replace(ExperimentConfig(), **values)
        cfg.validate()
        RunLog(cfg).save(tmp_path)
        back = RunLog.load(tmp_path).config
        assert type(back) is ExperimentConfig
        assert vars(back) == vars(cfg)

    def test_config_snapshot_replays_bit_exact(self, tmp_path):
        cfg = tiny_cfg(label="replay")
        cmd_run(cfg, str(tmp_path / "orig"))
        loaded = RunLog.load(str(tmp_path / "orig"))
        cmd_run(loaded.config, str(tmp_path / "replay"))
        for name in ("losses.csv", "metrics.csv", "clustering.csv"):
            assert (tmp_path / "orig" / name).read_bytes() == \
                (tmp_path / "replay" / name).read_bytes()

    def test_run_from_feature_files(self, tmp_path):
        cmd_gen_data(tiny_cfg(), str(tmp_path / "data"))
        cfg = tiny_cfg(
            data_mode="files",
            data_source_file=str(tmp_path / "data" / "source_train.txt"),
            data_target_train_file=str(tmp_path / "data" / "target_train.txt"),
            data_target_query_file=str(tmp_path / "data" / "target_query.txt"),
            data_target_gallery_file=str(tmp_path / "data" / "target_gallery.txt"),
        )
        log = cmd_run(cfg, str(tmp_path / "run"))
        assert log.final_full_row().map_score > 0

    def test_files_mode_rejects_wrong_header_role(self, tmp_path, capsys):
        data = tmp_path / "data"
        cmd_gen_data(tiny_cfg(), str(data))
        lines = (data / "target_train.txt").read_text().splitlines(keepends=True)
        assert lines[0].endswith("DOMAIN target SPLIT train\n")
        lines[0] = lines[0].replace("DOMAIN target", "DOMAIN source")
        (data / "mislabelled.txt").write_text("".join(lines))
        overrides = dict(TINY, **file_keys(
            data, data_target_train_file=str(data / "mislabelled.txt")))
        assert main(["run", "--out", str(tmp_path / "run")] + flags(overrides)) == 2
        err = capsys.readouterr().err
        assert "data_target_train_file" in err and "mislabelled.txt" in err
        assert not (tmp_path / "run" / "losses.csv").exists()

    def test_files_mode_rejects_test_identities_disjoint_from_tasks(self, tmp_path,
                                                                    capsys):
        data = tmp_path / "data"
        cmd_gen_data(tiny_cfg(), str(data))
        for name in ("target_query.txt", "target_gallery.txt"):
            head, *records = (data / name).read_text().splitlines(keepends=True)
            fields = [r.split("\t", 1) for r in records]
            (data / name).write_text(head + "".join(
                f"{int(ident) + 1000}\t{rest}" for ident, rest in fields))
        run_dir = tmp_path / "run"
        assert main(["run", "--out", str(run_dir)] + flags(dict(TINY, **file_keys(data)))) == 2
        err = capsys.readouterr().err
        assert "error: task 1 cannot be evaluated" in err
        assert "target query set" in err
        # it fails before pre-training: no checkpoint and no losses
        assert not (run_dir / "losses.csv").exists()
        assert not list(run_dir.glob("*.ckpt"))

    def test_files_mode_rejects_mixed_d_in(self, tmp_path):
        cmd_gen_data(tiny_cfg(), str(tmp_path / "d8"))
        cmd_gen_data(tiny_cfg(synth_dim=6), str(tmp_path / "d6"))
        cfg = tiny_cfg(**file_keys(tmp_path / "d8", data_target_query_file=str(
            tmp_path / "d6" / "target_query.txt")))
        from streamreid.cli import build_data
        with pytest.raises(ConfigError, match="data_target_query_file.*d6.*D_IN 6"):
            build_data(cfg)

    def test_files_mode_fails_at_the_first_faulty_file(self, tmp_path, monkeypatch):
        # two faulty files: a mis-declared source file and a target train
        # file with a bad record; the earlier key's error wins, and the
        # files after it are never read
        data = tmp_path / "data"
        cmd_gen_data(tiny_cfg(), str(data))
        source, train = data / "source_train.txt", data / "target_train.txt"
        source.write_text(source.read_text().replace("DOMAIN source", "DOMAIN target", 1))
        train.write_text(train.read_text() + "0\t0\tnot-a-number\n")
        read = []
        monkeypatch.setattr(cli, "load_feature_file",
                            lambda path: read.append(path) or load_feature_file(path))
        with pytest.raises(ConfigError, match=(
                f"^key data_source_file: {re.escape(str(source))} declares DOMAIN "
                "target SPLIT train, expected DOMAIN source SPLIT train$")):
            cli.build_data(tiny_cfg(**file_keys(data)))
        assert read == [str(source)]

    def test_files_mode_requires_paths(self):
        with pytest.raises(ConfigError, match="data_mode=files"):
            from streamreid.cli import build_data
            build_data(tiny_cfg(data_mode="files"))


class TestGridAndSweep:
    def test_grid_2x2_reproduces_ablation_structure(self, tmp_path):
        cfg = tiny_cfg()
        cmd_grid(cfg, {"enable_kd": ["true", "false"],
                       "enable_mmd": ["true", "false"]},
                 seeds=[0], out_root=str(tmp_path))
        cells = [d for d in os.listdir(tmp_path)
                 if (tmp_path / d).is_dir()]
        assert len(cells) == 4
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 cells

    def test_grid_axes_are_the_bool_and_enum_keys(self):
        from streamreid.cli import GRID_AXES
        assert GRID_AXES == {"enable_kd", "enable_mmd", "reid_mode",
                             "support_mode", "teacher_mode",
                             "accumulate_support"}

    def test_invalid_axis_rejected(self, tmp_path):
        from streamreid.cli import _parse_axes
        with pytest.raises(ConfigError, match="not allowed"):
            _parse_axes(["lr=0.1,0.2"])

    def test_bad_axis_value_rejected_before_any_run(self, tmp_path, capsys):
        args = ["grid", "--out", str(tmp_path), "--axis", "reid_mode=SpCL,Bogus"]
        assert main(args + flags(TINY)) == 2
        assert "reid_mode" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("axes,message", [
        (["enable_kd=true", "enable_kd=false"], "key 'enable_kd' repeated"),
        (["enable_kd=true,true,1"], "enable_kd value 'true' repeats 'true' in "
                                    "'enable_kd=true,true,1'"),
        (["enable_kd=true,1"], "enable_kd value '1' repeats 'true' in 'enable_kd=true,1'"),
        (["enable_mmd=false", "reid_mode=SpCL,StrongBaseline,SpCL"],
         "reid_mode value 'SpCL' repeats 'SpCL' in 'reid_mode=SpCL,StrongBaseline,SpCL'")],
        ids=["key", "same-text", "same-value", "enum"])
    def test_repeated_axis_key_or_value_rejected_before_any_run(self, tmp_path, capsys,
                                                                axes, message):
        # a repeated key would drop the first axis; a repeated value would run
        # one cell twice, into one directory or under a second name
        args = ["grid", "--out", str(tmp_path)]
        for axis in axes:
            args += ["--axis", axis]
        assert main(args + flags(TINY)) == 2
        assert capsys.readouterr().err == f"error: --axis: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", [["grid", "--axis", "enable_kd=true,false"],
                                         ["sweep", "--seeds", "0,1"]])
    def test_bad_data_key_rejected_before_any_cell(self, tmp_path, capsys, command):
        args = command + ["--out", str(tmp_path)]
        assert main(args + flags(dict(TINY, synth_samples_per_id="3"))) == 2
        assert capsys.readouterr().err.startswith("error: synth_samples_per_id must be")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("seeds", [",", " , ", ""])
    @pytest.mark.parametrize("command", [["grid", "--axis", "enable_kd=true,false"],
                                         ["sweep"]])
    def test_empty_seed_list_rejected_before_any_run(self, tmp_path, capsys, command,
                                                     seeds):
        args = command + ["--seeds", seeds, "--out", str(tmp_path)]
        assert main(args + flags(TINY)) == 2
        assert capsys.readouterr().err == f"error: --seeds: seed list {seeds!r} names no seed\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("seeds,repeated", [("0,0", 0), ("3,1,2,1", 1), ("5, 5", 5)])
    @pytest.mark.parametrize("command", [["grid", "--axis", "enable_kd=true,false"],
                                         ["sweep"]])
    def test_repeated_seed_rejected_before_any_run(self, tmp_path, capsys, command,
                                                   seeds, repeated):
        # one seed<N> directory cannot hold two runs, and the summary would
        # count the seed twice
        args = command + ["--seeds", seeds, "--out", str(tmp_path)]
        assert main(args + flags(TINY)) == 2
        assert capsys.readouterr().err == \
            f"error: --seeds: seed {repeated} repeated in {seeds!r}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", [["grid", "--axis", "enable_kd=true,false"],
                                         ["sweep"]])
    def test_negative_seed_in_list_rejected_before_any_run(self, tmp_path, capsys,
                                                           command):
        # without the check, seed 0 would train before seed -1 failed
        args = command + ["--seeds", "0,-1", "--out", str(tmp_path)]
        assert main(args + flags(TINY)) == 2
        assert capsys.readouterr().err == \
            "error: --seeds: seed must be >= 0, got -1 in '0,-1'\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_seed_fails_at_parse_naming_key(self, tmp_path, capsys, value):
        out = tmp_path / "r"
        assert main(["run", "--out", str(out)] + flags(dict(TINY, seed=value))) == 2
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0,1"],
                                         ["grid", "--axis", "enable_kd=true,false"]])
    def test_label_with_a_comma_rejected_before_any_run(self, tmp_path, capsys, command):
        # a label is a cell of summary.csv and of emit-curves' CSV
        out = tmp_path / "o"
        assert main(command + ["--out", str(out), "--label", "abl,v2"] + flags(TINY)) == 2
        assert capsys.readouterr().err == \
            "error: key label: 'abl,v2' contains ',', the CSV cell separator\n"
        assert not out.exists()

    def test_sweep_mean_std_over_three_seeds(self, tmp_path):
        cfg = tiny_cfg(label="sw")
        cmd_grid(cfg, {}, seeds=[0, 1, 2], out_root=str(tmp_path))
        finals = []
        for seed in (0, 1, 2):
            lg = RunLog.load(str(tmp_path / f"seed{seed}"))
            finals.append(lg.final_full_row().map_score)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        parts = lines[1].split(",")
        assert parts[0] == "sw" and parts[1] == "3"
        assert float(parts[2]) == pytest.approx(np.mean(finals), abs=1e-15)
        assert float(parts[3]) == pytest.approx(np.std(finals, ddof=1), abs=1e-15)

    def test_rerun_cell_byte_identical(self, tmp_path):
        cfg = tiny_cfg(label="sw")
        cmd_grid(cfg, {}, seeds=[0], out_root=str(tmp_path / "x"))
        first = (tmp_path / "x" / "summary.csv").read_bytes()
        cmd_grid(cfg, {}, seeds=[0], out_root=str(tmp_path / "x"))
        assert (tmp_path / "x" / "summary.csv").read_bytes() == first


class TestEmitCurves:
    def test_rows_per_run_include_task_zero(self, tmp_path):
        cmd_run(tiny_cfg(label="m1"), str(tmp_path / "r1"))
        cmd_run(tiny_cfg(label="m2", seed=1), str(tmp_path / "r2"))
        out = tmp_path / "curves.csv"
        cmd_emit_curves([str(tmp_path / "r1"), str(tmp_path / "r2")], str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "task_index,label,map"
        # 2 tasks + task 0 = 3 rows per run
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("0,m1,")

    def test_duplicate_labels_rejected(self, tmp_path):
        cmd_run(tiny_cfg(label="same"), str(tmp_path / "r1"))
        cmd_run(tiny_cfg(label="same", seed=1), str(tmp_path / "r2"))
        with pytest.raises(ConfigError, match="duplicate"):
            cmd_emit_curves([str(tmp_path / "r1"), str(tmp_path / "r2")],
                            str(tmp_path / "c.csv"))

    def test_directory_name_label_with_a_comma_rejected(self, tmp_path):
        run_dir = tmp_path / "abl,v2"
        cmd_run(tiny_cfg(), str(run_dir))
        with pytest.raises(ConfigError, match=re.escape(
                f"run {run_dir}: label 'abl,v2' (its directory name) contains ','")):
            cmd_emit_curves([str(run_dir)], str(tmp_path / "c.csv"))
        assert not (tmp_path / "c.csv").exists()

    def test_empty_run_set_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            cmd_emit_curves([], str(tmp_path / "c.csv"))

    def test_incomplete_log_flagged(self, tmp_path):
        cmd_run(tiny_cfg(label="part"), str(tmp_path / "r"))
        metrics = (tmp_path / "r" / "metrics.csv").read_text().splitlines()
        kept = [l for l in metrics if not l.startswith("2,full")]
        (tmp_path / "r" / "metrics.csv").write_text("\n".join(kept) + "\n")
        with pytest.raises(ConfigError, match="incomplete"):
            cmd_emit_curves([str(tmp_path / "r")], str(tmp_path / "c.csv"))


class TestAudit:
    def test_clean_run_passes(self, tmp_path):
        cmd_grid(tiny_cfg(label="a"), {}, seeds=[0, 1], out_root=str(tmp_path))
        assert cmd_audit(str(tmp_path)) == []

    def test_tampered_loss_total_detected(self, tmp_path):
        cmd_grid(tiny_cfg(label="a"), {}, seeds=[0], out_root=str(tmp_path))
        path = tmp_path / "seed0" / "losses.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[5] = repr(float(parts[5]) + 0.25)
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        problems = cmd_audit(str(tmp_path))
        assert any("loss accounting" in p for p in problems)

    def test_tampered_summary_detected(self, tmp_path):
        cmd_grid(tiny_cfg(label="a"), {}, seeds=[0], out_root=str(tmp_path))
        path = tmp_path / "summary.csv"
        text = path.read_text().splitlines()
        parts = text[1].split(",")
        parts[2] = repr(float(parts[2]) + 0.1)
        text[1] = ",".join(parts)
        path.write_text("\n".join(text) + "\n")
        problems = cmd_audit(str(tmp_path))
        assert any("not recomputable" in p for p in problems)

    def test_one_task_sweep_reports_undefined_forgetting(self, tmp_path, capsys):
        args = ["sweep", "--out", str(tmp_path), "--label", "one", "--seeds", "0,1"]
        assert main(args + flags(dict(TINY, n_tasks="1"))) == 0
        row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == ["one", "2"]
        assert row[6:] == ["nan", "nan"]
        assert main(["audit", "--out", str(tmp_path)]) == 0
        assert "audit clean" in capsys.readouterr().out


class TestEvalCommand:
    def test_checkpoint_evaluation(self, tmp_path):
        cmd_gen_data(tiny_cfg(), str(tmp_path / "data"))
        cmd_run(tiny_cfg(label="e"), str(tmp_path / "run"))
        out = cmd_eval(str(tmp_path / "data" / "target_query.txt"),
                       str(tmp_path / "data" / "target_gallery.txt"),
                       str(tmp_path / "run" / "task2_teacher.ckpt"))
        rows = dict(line.split(",") for line in out.splitlines())
        assert 0.0 <= float(rows["map"]) <= 1.0
        assert 0.0 <= float(rows["rank1"]) <= 1.0


def _ckpt_without(name):
    def write(path):
        params = dict(MLP([2, 3, 2], seed=1).params)
        del params[name]
        save_checkpoint(path, params)
    return write


def _ckpt_edited(edit):
    def write(path):
        save_checkpoint(path, MLP([2, 3, 2], seed=1).params)
        path.write_bytes(edit(path.read_bytes()))
    return write


# each malformed checkpoint and the message eval prints after its path
BAD_CHECKPOINTS = {
    "non-ASCII header byte": (_ckpt_edited(lambda b: b[:5] + b"\xc3" + b[6:]),
                              "header line 1: non-ASCII byte 0xc3"),
    "non-ASCII tensor line": (_ckpt_edited(lambda b: b.replace(b"layer0.W", b"layer0.\xc3", 1)),
                              "header line 3: non-ASCII byte 0xc3"),
    "tensors line without count": (_ckpt_edited(lambda b: b.replace(b"tensors 4\n", b"tensors\n")),
                                   "header line 2: expected 'tensors 4', got 'tensors'"),
    "count above the list": (_ckpt_edited(lambda b: b.replace(b"tensors 4", b"tensors 5")),
                             "header line 2: expected 'tensors 4', got 'tensors 5'"),
    "bad dimension": (_ckpt_edited(lambda b: b.replace(b"layer0.b 3", b"layer0.b x")),
                      "header line 4: expected a new '<name> <d1>,<d2>,...', got 'layer0.b x'"),
    "repeated name": (_ckpt_edited(lambda b: b.replace(b"layer1.b 2", b"layer0.b 2")),
                      "header line 6: expected a new"),
    "bad magic": (_ckpt_edited(lambda b: b.replace(b"CKPT 1", b"CKPT 9", 1)),
                  "bad checkpoint magic: 'STREAMREID-CKPT 9'"),
    "no data line": (lambda path: path.write_bytes(b"not a checkpoint"),
                     "no 'data' line ends the checkpoint header"),
    "short payload": (_ckpt_edited(lambda b: b[:-8]), "tensor 'layer1.b' needs 16 bytes, 8 left"),
    "trailing bytes": (_ckpt_edited(lambda b: b + bytes(3)),
                       "3 trailing bytes after the last tensor"),
    "no extractor layers": (lambda path: save_checkpoint(path, ClassifierHead(2, 2).params),
                            "checkpoint blocks ['W', 'b'] are not an MLP's"),
    "missing bias": (_ckpt_without("layer1.b"),
                     "checkpoint blocks ['layer0.W', 'layer0.b', 'layer1.W'] are not an MLP's"),
    "vector weight": (_ckpt_edited(lambda b: b.replace(b"layer1.W 3,2", b"layer1.W 6")),
                      "checkpoint blocks ['layer0.W', 'layer0.b', 'layer1.W', 'layer1.b'] "
                      "are not an MLP's"),
    "layers that do not chain": (
        _ckpt_edited(lambda b: b.replace(b"layer1.W 3,2", b"layer1.W 2,3")),
        "parameter block 'layer1.W' missing or shape-incongruent"),
}


class TestEvalCheckpoint:
    """eval reads the checkpoint it is given or fails naming it, exit 2."""

    def _argv(self, tmp_path, ckpt):
        for name, split in (("q.txt", "query"), ("g.txt", "gallery")):
            (tmp_path / name).write_text(f"D_IN 2 DOMAIN target SPLIT {split}\n0\t0\t1.0,2.0\n"
                                         "0\t0\t1.5,2.0\n1\t0\t-1.0,0.5\n", encoding="ascii")
        return ["eval", "--query", str(tmp_path / "q.txt"), "--gallery",
                str(tmp_path / "g.txt"), "--checkpoint", str(ckpt)]

    def test_saved_extractor_evaluates(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, MLP([2, 3, 2], seed=1).params)
        assert main(self._argv(tmp_path, ckpt)) == 0
        assert capsys.readouterr().out.startswith("map,")

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_malformed_checkpoint(self, tmp_path, capsys, case):
        write, message = BAD_CHECKPOINTS[case]
        ckpt = tmp_path / "m.ckpt"
        write(ckpt)
        assert main(self._argv(tmp_path, ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {message}"), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("role", ["query", "gallery"])
    def test_input_width_mismatch_names_checkpoint_and_file(self, tmp_path, capsys, role):
        # an extractor for 16-wide descriptors on D_IN 2 files; the query
        # is checked first, so the gallery case gives the query 16 columns
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, MLP([16, 4], seed=1).params)
        argv = self._argv(tmp_path, ckpt)
        wide = tmp_path / "wide.txt"
        wide.write_text("D_IN 16 DOMAIN target SPLIT query\n0\t0\t"
                        + ",".join(["1.0"] * 16) + "\n", encoding="ascii")
        if role == "query":
            bad = argv[2]
        else:
            argv[2], bad = str(wide), argv[4]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: input width 16 != {bad} D_IN 2\n"

    @pytest.mark.parametrize("query, gallery, bad, declared, expected", [
        # a source/train file given as both sides fails on the query side
        ("s.txt", "s.txt", "s.txt", "source SPLIT train", "target SPLIT query"),
        ("q.txt", "q.txt", "q.txt", "target SPLIT query", "target SPLIT gallery"),
        ("g.txt", "q.txt", "g.txt", "target SPLIT gallery", "target SPLIT query"),
    ])
    def test_header_roles_checked(self, tmp_path, capsys, query, gallery, bad,
                                  declared, expected):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, MLP([2, 3, 2], seed=1).params)
        self._argv(tmp_path, ckpt)
        (tmp_path / "s.txt").write_text("D_IN 2 DOMAIN source SPLIT train\n0\t0\t1.0,2.0\n"
                                        "0\t1\t1.5,2.0\n", encoding="ascii")
        argv = ["eval", "--query", str(tmp_path / query), "--gallery",
                str(tmp_path / gallery), "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / bad} declares DOMAIN "
                                           f"{declared}, expected DOMAIN {expected}\n")


class TestMainEntry:
    def test_run_and_audit_exit_codes(self, tmp_path):
        args = ["run", "--out", str(tmp_path / "r"), "--label", "cli"]
        for key, value in TINY.items():
            args.extend([f"--{key}", value])
        assert main(args) == 0
        assert main(["audit", "--out", str(tmp_path)]) == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path), "--alpha", "2.0"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_non_finite_value_rejected_before_training(self, tmp_path, capsys):
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
        out = tmp_path / "run"
        args = ["run", "--config", cfg, "--triplet_margin", "nan", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: triplet_margin must be finite")
        assert not (out / "losses.csv").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--batch_p", "1", "--pretrain_epochs", "0"], "batch_p"),
        (["--batch_k", "1"], "batch_k"),
        (["--batch_k", "1", "--pretrain_epochs", "0", "--reid_mode", "StrongBaseline"],
         "batch_k")])
    def test_batch_geometry_rejected_before_training(self, tmp_path, capsys, flags, key):
        assert main(["run", "--out", str(tmp_path)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be >= 2")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key, value, error", [
        ("min_cluster_size", "0", "min_cluster_size must be >= 1, got 0"),
        ("dbscan_min_pts", "0", "dbscan_min_pts must be >= 1, got 0"),
        ("lambda_mmd", "-1", "lambda_mmd must be >= 0, got -1.0"),
        ("lambda_kd", "-0.5", "lambda_kd must be >= 0, got -0.5"),
        ("weight_decay", "-1e-3", "weight_decay must be >= 0, got -0.001"),
        ("epochs_per_task", "0", "epochs_per_task must be >= 1, got 0"),
        ("n_tasks", "0", "n_tasks must be >= 1, got 0"),
        ("pretrain_epochs", "-1", "pretrain_epochs must be >= 0, got -1"),
        ("lr", "0", "lr must be positive, got 0.0"),
        ("memory_temperature", "-1", "memory_temperature must be positive, got -1.0"),
        ("alpha", "1", "alpha must lie in [0, 1), got 1.0"),
        ("alpha", "-0.1", "alpha must lie in [0, 1), got -0.1"),
        ("memory_momentum", "1", "memory_momentum must lie in [0, 1), got 1.0"),
        ("memory_momentum", "-0.1", "memory_momentum must lie in [0, 1), got -0.1"),
        ("dbscan_percentile", "0", "dbscan_percentile must lie in (0, 100), got 0.0"),
        ("dbscan_percentile", "100", "dbscan_percentile must lie in (0, 100), got 100.0"),
        # a negative margin ran to the end, and -1e300 zeroed the triplet term
        ("triplet_margin", "-0.5", "triplet_margin must be >= 0, got -0.5"),
        ("triplet_margin", "-1e300", "triplet_margin must be >= 0, got -1e+300")])
    def test_run_key_out_of_range_named_alone(self, tmp_path, capsys, key, value, error):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), f"--{key}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1e300", "-1E-3", "-.5e2"])
    def test_negative_value_with_an_exponent_is_a_value(self, tmp_path, capsys, value):
        # argparse took "-1e300" for an option: "expected one argument"
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--lr", value]) == 2
        assert capsys.readouterr().err == f"error: lr must be positive, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                     if f.type in (int, "int")])
    @pytest.mark.parametrize("below", [0, 1])
    def test_int_key_at_its_floor_and_one_below(self, tmp_path, capsys, key, below):
        floor = INT_FLOORS[key]
        args = ["run", "--config", BENCHMARK_CFG, *TINY_STREAM, f"--{key}={floor - below}",
                "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in err
        if below:
            assert code == 2 and err.startswith(f"error: {key} must be >= {floor}, "
                                                f"got {floor - 1}"), (code, err)
        else:
            assert code == 0 or (code == 2 and err.startswith("error: ")), (code, err)

    @pytest.mark.parametrize("key, value", [
        ("synth_intra_std", "nan"), ("synth_camera_jitter", "nan"),
        ("synth_shift_offset", "nan"), ("synth_weak_scale", "nan"),
        ("synth_shift_magnitude", "nan"), ("synth_shift_magnitude", "inf"),
        ("synth_samples_per_id", "3"), ("synth_dim", "0"), ("synth_cameras", "0"),
        ("synth_strong_dims", "-3"), ("synth_seed", "-1"), ("data_mode", "bogus")])
    @pytest.mark.parametrize("command", ["gen-data", "run"])
    def test_bad_data_key_rejected_before_any_output(self, tmp_path, capsys, command,
                                                     key, value):
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, f"--{key}", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["synth_intra_std", "synth_camera_jitter"])
    def test_huge_noise_is_a_degenerate_config_not_a_traceback(self, tmp_path, capsys,
                                                               key):
        out = tmp_path / "out"
        assert main(["gen-data", f"--{key}", "1e300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate config: separation ratio 0.000 <= 1")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("memory_temperature", "1e-300"),
                                           ("lambda_kd", "1e300"), ("lambda_mmd", "1e300"),
                                           ("lr", "1e6")])
    def test_floating_point_overflow_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                                 key, value):
        # each overflows inside the run; without the run's errstate it only
        # warned, and the run went on to exit 0 on inf-scaled updates
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
        args = ["run", "--config", cfg, "--n_tasks", "2", "--epochs_per_task", "1",
                "--pretrain_epochs", "1", f"--{key}", value, "--out", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: task \d+ epoch \d+: overflow encountered in ", err), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,where", [("lr", "1e300", "pre-training"),
                                                 ("lambda_mmd", "1e300", "task 1 epoch 0")])
    def test_floating_point_error_names_where_it_stopped(self, tmp_path, capsys, key,
                                                          value, where):
        args = ["run", "--config", BENCHMARK_CFG, *TINY_STREAM, f"--{key}={value}",
                "--out", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: overflow encountered in ")

    def test_weak_scale_above_one_rejected_before_any_output(self, tmp_path, capsys):
        # at 1e300 the "weak" dimensions overflowed while the data was made,
        # with a warning, and the run went on to exit 0 at mAP 1.0
        out = tmp_path / "out"
        args = ["run", "--config", BENCHMARK_CFG, *TINY_STREAM, "--synth_weak_scale=1e300",
                "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: synth_weak_scale must be in (0, 1], got 1e+300\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                     if f.type in (float, "float")])
    @pytest.mark.parametrize("value", ["1e300", "-1e300"])
    def test_float_key_at_either_extreme_runs_or_names_an_error(self, tmp_path, capsys,
                                                                 key, value):
        args = ["run", "--config", BENCHMARK_CFG, *TINY_STREAM, f"--{key}={value}",
                "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 0 or (code == 2 and err.startswith("error: ")), (code, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides", FLOAT_FLOORS,
                             ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_float_key_at_its_floor_runs_or_names_an_error(self, tmp_path, capsys,
                                                           overrides):
        args = ["run", "--config", BENCHMARK_CFG, *TINY_STREAM,
                *(f"--{k}={v}" for k, v in overrides.items()), "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 0 or (code == 2 and err.startswith("error: ")), (code, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, error", [
        ("--synth_source_ids=1", "error: source pre-training needs at least 2 identities"),
        ("--memory_temperature=5e-324", "error: task 1 epoch 0: overflow encountered in "),
        ("--dbscan_percentile=5e-324", "error: task 1 epoch 0: only 0 usable clusters")])
    def test_run_that_fails_before_its_first_task_ends_leaves_no_output(
            self, tmp_path, capsys, flag, error):
        # each left an empty directory: it was made before the run started
        out = tmp_path / "out"
        args = ["run", "--config", BENCHMARK_CFG, *TINY_STREAM, flag, "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(error)
        assert not out.exists()

    def test_degenerate_stream_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # the classifier mode finds fewer than 2 clusters at task 1 here
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
        args = ["run", "--config", cfg, "--reid_mode", "StrongBaseline",
                "--seed", "0", "--out", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: task 1 epoch 0: only")
        assert "usable clusters (Classifier needs 2; eps=" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "DIR", "--out", "OUT"],
        ["run", "--data_mode", "files", "--data_source_file", "DIR",
         "--data_target_train_file", "t", "--data_target_query_file", "q",
         "--data_target_gallery_file", "g", "--out", "OUT"],
        ["eval", "--query", "DIR", "--gallery", "DIR", "--checkpoint", "DIR"]])
    def test_directory_as_input_file_is_an_error(self, tmp_path, capsys, argv):
        d, out = tmp_path / "inputs", tmp_path / "out"
        d.mkdir()
        assert main([{"DIR": str(d), "OUT": str(out)}.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{d}'\n"
        assert not out.exists()

    def test_out_env_var_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STREAMREID_OUT", str(tmp_path / "envroot"))
        args = ["run", "--label", "env"]
        for key, value in TINY.items():
            args.extend([f"--{key}", value])
        assert main(args) == 0
        assert (tmp_path / "envroot" / "losses.csv").exists()


class TestSchemaGolden:
    def test_headers_locked(self):
        assert LOSS_HEADER == "task,iteration,l_reid,l_kd,l_mmd,total,lr,sigma_mmd"
        assert METRIC_HEADER == "task,scope,map,rank1,rank5,n_queries,n_excluded"
        assert CLUSTER_HEADER == "task,epoch,n_clusters,outlier_fraction,eps"
        from streamreid.cli import CURVES_HEADER, SUMMARY_HEADER
        assert SUMMARY_HEADER == ("label,n_seeds,final_map_mean,final_map_std,"
                                  "final_rank1_mean,final_rank1_std,"
                                  "forgetting_mean,forgetting_std")
        assert CURVES_HEADER == "task_index,label,map"


class TestEvalFeatureFile:
    """eval names the feature file and the line of a malformed record."""

    @pytest.mark.parametrize("text, line, message", [
        ("D_IN 2 DOMAIN target SPLIT query\n0\t0\t1.0\n", 2, "dimension 1 != header D_IN 2"),
        ("D_IN 2 DOMAIN target SPLIT query\n0\t0\t1.0,2.0\n\n1\t0\t1.0,inf\n", 4,
         "non-finite descriptor entry"),
        ("D_IN 2 DOMAIN nowhere SPLIT query\n0\t0\t1.0,2.0\n", 1,
         "header: 'nowhere' is not a valid Domain"),
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, capsys, text, line, message):
        good = tmp_path / "good.txt"
        good.write_text("D_IN 2 DOMAIN target SPLIT gallery\n0\t0\t1.0,2.0\n",
                        encoding="ascii")
        bad = tmp_path / "badq.txt"
        bad.write_text(text, encoding="ascii")
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, MLP([2, 2], seed=1).params)
        argv = ["eval", "--query", str(bad), "--gallery", str(good), "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad} line {line}: {message}\n"

    @pytest.mark.parametrize("column", [0, 1], ids=["identity", "camera"])
    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_label_outside_int64_names_file_and_line(self, tmp_path, capsys, command,
                                                     value, column):
        data = tmp_path / "data"
        cmd_gen_data(tiny_cfg(), str(data))
        bad = data / "target_query.txt"
        head, first, *rest = bad.read_text().splitlines(keepends=True)
        cells = first.split("\t")
        cells[column] = str(value)
        bad.write_text(head + "\t".join(cells) + "".join(rest))
        if command == "eval":
            ckpt = tmp_path / "m.ckpt"
            save_checkpoint(ckpt, MLP([8, 2], seed=1).params)
            argv = ["eval", "--query", str(bad), "--gallery",
                    str(data / "target_gallery.txt"), "--checkpoint", str(ckpt)]
        else:
            argv = ["run", "--out", str(tmp_path / "run")] + flags(dict(TINY, **file_keys(data)))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad} line 2: unparseable field (")
