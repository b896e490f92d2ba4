"""Edge-of-contract checks that the per-module suites do not pin down."""

import re
import shutil

import numpy as np
import pytest

from streamreid.cli import cmd_grid, cmd_run, main, parse_config
from streamreid.data import Domain, FeatureFileError, load_feature_file
from streamreid.distill import select_support
from streamreid.mlp import MLP, save_checkpoint
from streamreid.runlog import CLUSTER_HEADER, RunLog
from streamreid.trainer import RunConfig
from tests.conftest import CFG, identity_extractor, make_dataset
from tests.test_cli import TINY, tiny_cfg


class TestSelectSupportTieBreak:
    def test_equal_similarity_prefers_lowest_source_index(self):
        ext = identity_extractor(2)
        # identical vectors under identities 7 and 3; index 0 must win
        source = make_dataset([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [7, 3, 1])
        target = make_dataset([[1.0, 0.0]], [0], domain=Domain.TARGET)
        assert select_support(target, source, ext, CFG.support_mode).identities() == {7}

    def test_tie_break_is_scale_free(self):
        ext = identity_extractor(2)
        source = make_dataset([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [7, 3, 1])
        target = make_dataset([[0.5, 0.0]], [0], domain=Domain.TARGET)
        # cosine ties regardless of magnitude; index 0 still wins
        assert select_support(target, source, ext, CFG.support_mode).identities() == {7}


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
        with pytest.raises(FeatureFileError,
                           match=f"^{re.escape(str(p))} line 2: negative identity"):
            load_feature_file(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("")
        with pytest.raises(FeatureFileError, match=f"^{re.escape(str(p))}: empty file$"):
            load_feature_file(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("D_IN 2 DOMAIN source SPLIT train\n")
        with pytest.raises(FeatureFileError, match=f"^{re.escape(str(p))}: .*no records$"):
            load_feature_file(p)


# one damaged CSV each: (file, line, edit of that line or None to empty the
# file, the error after "<file> line <n>: ")
DAMAGED = {
    "truncated_row": ("losses.csv", 3, lambda line: line.rsplit(",", 1)[0],
                      "expected 8 cells, got 7"),
    "extra_cell": ("metrics.csv", 2, lambda line: line + ",0",
                   "expected 7 cells, got 8"),
    "non_numeric_cell": ("losses.csv", 2, lambda line: "0,0,abc," + line.split(",", 3)[3],
                         "could not convert string to float: 'abc'"),
    "empty_file": ("clustering.csv", 1, None, "unexpected header ''"),
    "non_ascii_byte": ("losses.csv", 3, lambda line: line[:4] + "\u00e9" + line[4:],
                       "non-ASCII byte 0xc3"),
}


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved") / "r1"
    cmd_run(tiny_cfg(label="r1"), str(out))
    return out


@pytest.fixture
def damaged_run(request, saved_run, tmp_path):
    """A copy of a saved run directory with one CSV damaged; returns the run
    directory and the message its loading must raise."""
    name, lineno, edit, error = DAMAGED[request.param]
    run_dir = tmp_path / "r1"
    shutil.copytree(saved_run, run_dir)
    path = run_dir / name
    if edit is None:
        path.write_text("")
    else:
        lines = path.read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return run_dir, f"{name} line {lineno}: {error}"


class TestRunlogLoading:
    def test_missing_files_reported_as_incomplete(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="incomplete"):
            RunLog.load(str(tmp_path))

    @pytest.mark.parametrize("damaged_run", sorted(DAMAGED), indirect=True)
    def test_damaged_csv_names_file_and_line(self, damaged_run):
        run_dir, error = damaged_run
        with pytest.raises(ValueError) as info:
            RunLog.load(str(run_dir))
        assert str(info.value).startswith(error)

    @pytest.mark.parametrize("damaged_run", sorted(DAMAGED), indirect=True)
    def test_emit_curves_exits_2_naming_file_and_line(self, damaged_run, capsys):
        run_dir, error = damaged_run
        out = run_dir.parent / "curves.csv"
        assert main(["emit-curves", "--runs", str(run_dir), "--out-file", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir}: {error}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("damaged_run", sorted(DAMAGED), indirect=True)
    def test_audit_reports_damaged_run_as_unreadable(self, damaged_run, capsys):
        run_dir, error = damaged_run
        assert main(["audit", "--out", str(run_dir.parent)]) == 1
        err = capsys.readouterr().err
        assert f"AUDIT FAIL: {run_dir}: unreadable ({error}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damaged_run", ["truncated_row"], indirect=True)
    def test_emit_curves_names_the_damaged_run(self, damaged_run, saved_run, capsys):
        run_dir, error = damaged_run
        out = run_dir.parent / "curves.csv"
        argv = ["emit-curves", "--runs", str(saved_run), str(run_dir), "--out-file", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {run_dir}: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, error", [
        ("lrr = 0.01", "unknown config key 'lrr' ({config}:{lineno})"),
        ("lr 0.01", "{config}:{lineno}: expected 'key = value'"),
    ], ids=["unknown key", "no equals sign"])
    @pytest.mark.parametrize("command", ["emit-curves", "audit"])
    def test_damaged_config_txt_names_file_and_line(self, saved_run, tmp_path, capsys,
                                                    command, line, error):
        run_dir = tmp_path / "r1"
        shutil.copytree(saved_run, run_dir)
        config = run_dir / "config.txt"
        lines = config.read_text().splitlines()
        lines.append(line)
        config.write_text("\n".join(lines) + "\n")
        error = error.format(config=config, lineno=len(lines))
        if command == "audit":
            assert main(["audit", "--out", str(tmp_path)]) == 1
            assert f"AUDIT FAIL: {run_dir}: unreadable ({error})" in capsys.readouterr().err
        else:
            out = tmp_path / "curves.csv"
            assert main(["emit-curves", "--runs", str(run_dir), "--out-file", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {run_dir}: {error}\n"
            assert not out.exists()

    def test_header_only_csv_loads_as_zero_rows(self, saved_run, tmp_path):
        run_dir = tmp_path / "r1"
        shutil.copytree(saved_run, run_dir)
        (run_dir / "clustering.csv").write_text(CLUSTER_HEADER + "\n")
        lg = RunLog.load(str(run_dir))
        assert lg.cluster_rows == []
        assert lg.loss_rows and lg.eval_rows


class TestNonAsciiInput:
    """A non-ASCII byte fails naming the file and line, exit 2."""

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 0\nlabel = caf\u00e9\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg} line 2: non-ASCII byte 0xc3\n"
        assert not (tmp_path / "o").exists()

    def test_feature_file(self, tmp_path, capsys):
        query = tmp_path / "q.txt"
        query.write_text("D_IN 2 DOMAIN target SPLIT query\n0\t0\t1.0,2.0\n"
                         "1\t0\t\u00bd,2.0\n", encoding="utf-8")
        gallery = tmp_path / "g.txt"
        gallery.write_text("D_IN 2 DOMAIN target SPLIT gallery\n0\t0\t1.0,2.0\n",
                           encoding="ascii")
        argv = ["eval", "--query", str(query), "--gallery", str(gallery),
                "--checkpoint", str(tmp_path / "none.ckpt")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {query} line 3: non-ASCII byte 0xc2\n"


class TestSweepDataSeeding:
    def test_default_redraws_data_per_seed(self, tmp_path):
        cmd_grid(tiny_cfg(label="s"), {}, seeds=[0, 1], out_root=str(tmp_path))
        a = RunLog.load(str(tmp_path / "seed0"))
        b = RunLog.load(str(tmp_path / "seed1"))
        assert a.config.synth_seed == 0
        assert b.config.synth_seed == 1

    def test_opt_out_keeps_one_dataset(self, tmp_path):
        cfg = tiny_cfg(seed_data_with_run="false", synth_seed="42")
        cmd_grid(cfg, {}, seeds=[0, 1], out_root=str(tmp_path))
        for seed in (0, 1):
            lg = RunLog.load(str(tmp_path / f"seed{seed}"))
            assert lg.config.synth_seed == 42


class TestConfigSnapshotCompleteness:
    def test_every_trainer_field_has_a_config_key(self):
        import dataclasses
        from streamreid.cli import ExperimentConfig
        exp_keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for f in dataclasses.fields(RunConfig):
            assert f.name in exp_keys, f"RunConfig.{f.name} not exposed to the CLI"
