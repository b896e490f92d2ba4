import os

import numpy as np
import pytest

from streamreid.cli import (ConfigError, cmd_audit,
                            cmd_emit_curves, cmd_eval, cmd_gen_data, cmd_grid,
                            cmd_run, cmd_sweep, main, parse_config)
from streamreid.data import load_feature_file
from streamreid.runlog import (CLUSTER_HEADER, LOSS_HEADER, METRIC_HEADER,
                               RunLog)

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
        assert back.config == cfg.snapshot()
        assert [r.to_csv() for r in back.loss_rows] == \
            [r.to_csv() for r in log.loss_rows]
        assert [r.to_csv() for r in back.eval_rows] == \
            [r.to_csv() for r in log.eval_rows]

    def test_config_snapshot_replays_bit_exact(self, tmp_path):
        cfg = tiny_cfg(label="replay")
        cmd_run(cfg, str(tmp_path / "orig"))
        loaded = RunLog.load(str(tmp_path / "orig"))
        replay_cfg = parse_config(None, loaded.config)
        cmd_run(replay_cfg, str(tmp_path / "replay"))
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

    def test_invalid_axis_rejected(self, tmp_path):
        from streamreid.cli import _parse_axes
        with pytest.raises(ConfigError, match="not allowed"):
            _parse_axes(["lr=0.1,0.2"])

    def test_sweep_mean_std_over_three_seeds(self, tmp_path):
        cfg = tiny_cfg(label="sw")
        cmd_sweep(cfg, seeds=[0, 1, 2], out_root=str(tmp_path))
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
        cmd_sweep(cfg, seeds=[0], out_root=str(tmp_path / "x"))
        first = (tmp_path / "x" / "summary.csv").read_bytes()
        cmd_sweep(cfg, seeds=[0], out_root=str(tmp_path / "x"))
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
        cmd_sweep(tiny_cfg(label="a"), seeds=[0, 1], out_root=str(tmp_path))
        assert cmd_audit(str(tmp_path)) == []

    def test_tampered_loss_total_detected(self, tmp_path):
        cmd_sweep(tiny_cfg(label="a"), seeds=[0], out_root=str(tmp_path))
        path = tmp_path / "seed0" / "losses.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[5] = repr(float(parts[5]) + 0.25)
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        problems = cmd_audit(str(tmp_path))
        assert any("loss accounting" in p for p in problems)

    def test_tampered_summary_detected(self, tmp_path):
        cmd_sweep(tiny_cfg(label="a"), seeds=[0], out_root=str(tmp_path))
        path = tmp_path / "summary.csv"
        text = path.read_text().splitlines()
        parts = text[1].split(",")
        parts[2] = repr(float(parts[2]) + 0.1)
        text[1] = ",".join(parts)
        path.write_text("\n".join(text) + "\n")
        problems = cmd_audit(str(tmp_path))
        assert any("not recomputable" in p for p in problems)


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

    def test_degenerate_stream_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # the classifier mode finds fewer than 2 clusters at task 1 here
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")
        args = ["run", "--config", cfg, "--reid_mode", "StrongBaseline",
                "--seed", "0", "--out", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: task 1 epoch 0: only")
        assert "usable clusters" in err

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
