"""Command-line front end: runs, grids, seed sweeps, and CSV emission.

Config files are flat ``key = value`` text; ``#`` opens a comment at the
start of a line or after whitespace. Every key mirrors a command-line flag
``--key value`` and unknown keys are errors. The keys are RunConfig's and
SynthConfig's fields plus the run label and the data source keys, each
parsed by the type of its default and checked at parse time by key name.
Artifacts are plain CSV, deterministic byte-for-byte given config + seed.

Subcommands: run, grid, sweep, eval, gen-data, emit-curves, audit.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import re
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .data import (Dataset, Domain, RunData, Split, SynthConfig, generate_synthetic,
                   load_feature_file, read_ascii_lines, save_feature_file)
from .evaluation import evaluate
from .mlp import MLP
from .runlog import CONFIG_TXT, METRICS_CSV, RunLog, fmt, read_lines, write_lines
from .trainer import DegenerateStreamError, RunConfig, TargetRetentionError, run

OUT_ROOT_ENV = "STREAMREID_OUT"

SUMMARY_CSV = "summary.csv"
SUMMARY_HEADER = ("label,n_seeds,final_map_mean,final_map_std,"
                  "final_rank1_mean,final_rank1_std,forgetting_mean,forgetting_std")
CURVES_HEADER = "task_index,label,map"


class ConfigError(ValueError):
    pass


DATA_MODES = ("synthetic", "files")


@dataclass
class ExperimentConfig(RunConfig, SynthConfig):
    """Trainer and synthetic-data config plus run label and data source
    selection, one flat namespace. The trainer keys and their defaults are
    RunConfig's, the synth_* keys SynthConfig's."""

    label: str = ""
    data_mode: str = "synthetic"            # synthetic | files
    seed_data_with_run: bool = True         # sweeps/grids tie synth_seed to seed
    data_source_file: str = ""
    data_target_train_file: str = ""
    data_target_query_file: str = ""
    data_target_gallery_file: str = ""

    def validate(self) -> None:
        """Every key, the synthetic ones in files mode too; RunConfig's
        finite check covers every float field of this class."""
        try:
            super().validate()
            self.validate_synth()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if self.data_mode not in DATA_MODES:
            raise ConfigError(f"data_mode must be one of {', '.join(DATA_MODES)}, "
                              f"got {self.data_mode!r}")

    def to_run_config(self) -> RunConfig:
        return RunConfig(**{f.name: getattr(self, f.name) for f in fields(RunConfig)})


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# a '#' at the start of a line or after whitespace opens a comment
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_value(key: str, text: str, where: str):
    """Parse one raw value by the type of the key's default."""
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    text = text.strip()
    if _COMMENT.search(text) or not text.isascii() or "\n" in text or "\r" in text:
        raise ConfigError(f"key {key}: value {text!r} cannot be replayed from "
                          "config.txt (ASCII on one line, no '#' at its start "
                          "or after whitespace)")
    default = _DEFAULTS[key]
    try:
        if isinstance(default, bool):
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if isinstance(default, tuple):
            parts = text.split(",")
            if not all(h.strip() for h in parts):
                raise ValueError(f"empty element in {text!r}")
            return tuple(int(h) for h in parts)
        return type(default)(text)      # int, float, str or an Enum by value
    except ValueError as e:
        raise ConfigError(f"key {key}: {e}") from e


def parse_config(path: str | None,
                 overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Key-value config file plus overrides; overrides win; unknown keys
    are errors naming the key and its location."""
    values = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(read_ascii_lines(path, path), 1):
            line = _COMMENT.split(line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return _with_overrides(ExperimentConfig(**values), overrides or {})


def _with_overrides(cfg: ExperimentConfig, overrides: dict[str, str]
                    ) -> ExperimentConfig:
    out = dataclasses.replace(cfg, **{key: _parse_value(key, raw, "command line")
                                      for key, raw in overrides.items()})
    out.validate()
    return out


# the (domain, split) each feature file must declare in its header
FILE_ROLES = {
    "data_source_file": (Domain.SOURCE, Split.TRAIN),
    "data_target_train_file": (Domain.TARGET, Split.TRAIN),
    "data_target_query_file": (Domain.TARGET, Split.QUERY),
    "data_target_gallery_file": (Domain.TARGET, Split.GALLERY),
}


def _load_role_file(path: str, key: str, where: str = "") -> Dataset:
    """The feature file at path; it must declare the role FILE_ROLES[key]."""
    ds = load_feature_file(path)
    domain, split = FILE_ROLES[key]
    if (ds.domain, ds.split) != (domain, split):
        raise ConfigError(f"{where}{path} declares DOMAIN {ds.domain.value} "
                          f"SPLIT {ds.split.value}, expected DOMAIN {domain.value} "
                          f"SPLIT {split.value}")
    return ds


def build_data(cfg: ExperimentConfig) -> RunData:
    if cfg.data_mode == "files":
        missing = [k for k in FILE_ROLES if not getattr(cfg, k)]
        if missing:
            raise ConfigError(f"data_mode=files needs keys: {', '.join(missing)}")
        loaded = {}
        for key in FILE_ROLES:      # each file is checked before the next is read
            loaded[key] = _load_role_file(getattr(cfg, key), key, f"key {key}: ")
            d_in = loaded[key].descriptor_matrix().shape[1]
            d_source = loaded["data_source_file"].descriptor_matrix().shape[1]
            if d_in != d_source:
                raise ConfigError(f"key {key}: {getattr(cfg, key)} has D_IN {d_in}, "
                                  f"but data_source_file has D_IN {d_source}")
        return RunData(*loaded.values())
    return generate_synthetic(cfg)[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _out_root(args) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        raise ConfigError("no --out given and STREAMREID_OUT is not set")
    return root


def cmd_run(cfg: ExperimentConfig, out_dir: str) -> RunLog:
    data = build_data(cfg)
    os.makedirs(out_dir, exist_ok=True)
    runlog = run(cfg, data, checkpoint_dir=out_dir)   # config.txt holds every key
    runlog.save(out_dir)
    return runlog


# every boolean or enum trainer key
GRID_AXES = {f.name for f in fields(RunConfig) if isinstance(f.default, (bool, Enum))}


def _parse_axes(axis_args: list[str]) -> dict[str, list[str]]:
    axes: dict[str, list[str]] = {}
    for axis in axis_args:
        if "=" not in axis:
            raise ConfigError(f"--axis expects key=v1,v2,... got {axis!r}")
        key, _, values = axis.partition("=")
        key = key.strip()
        if key not in GRID_AXES:
            raise ConfigError(
                f"axis key {key!r} not allowed; valid axes: {sorted(GRID_AXES)}")
        if key in axes:         # a cell per value, so each key and value once
            raise ConfigError(f"--axis: key {key!r} repeated")
        axes[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[key]:
            raise ConfigError(f"axis {key!r} has no values")
        seen = {}
        for v in axes[key]:     # fail before the first cell runs
            value = _parse_value(key, v, "--axis")
            if value in seen:
                raise ConfigError(f"--axis: {key} value {v!r} repeats {seen[value]!r} "
                                  f"in {axis!r}")
            seen[value] = v
    if not axes:
        raise ConfigError("grid needs at least one --axis")
    return axes


def _summary_row(label: str, logs: list[RunLog]) -> str:
    finals = [lg.final_full_row() for lg in logs]
    maps = np.array([r.map_score for r in finals])
    r1 = np.array([r.rank1 for r in finals])
    fg = np.array([lg.forgetting().score for lg in logs])

    def mean_std(x):
        m = float(np.mean(x))
        s = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
        return fmt(m), fmt(s)

    cells = [label, str(len(logs))]
    for arr in (maps, r1, fg):
        cells.extend(mean_std(arr))
    return ",".join(cells)


def _seed_overrides(cfg: ExperimentConfig, seed: int) -> dict[str, str]:
    """Per-repetition overrides: the run seed, and (by default) fresh
    synthetic data drawn with the same seed. The shift map stays fixed, so
    repetitions sample the same benchmark."""
    ov = {"seed": str(seed)}
    if cfg.seed_data_with_run and cfg.data_mode == "synthetic":
        ov["synth_seed"] = str(seed)
    return ov


def cmd_grid(cfg: ExperimentConfig, axes: dict[str, list[str]],
             seeds: list[int], out_root: str) -> None:
    """Every combination of axis values, over the seeds; with no axes, a sweep."""
    rows = []
    keys = sorted(axes)
    for combo in itertools.product(*(axes[k] for k in keys)):
        cell = dict(zip(keys, combo))
        cell_dir = "_".join(f"{k}-{v}" for k, v in cell.items())
        cell_label = cell_dir or cfg.label or "sweep"
        logs = []
        for seed in seeds:
            overrides = dict(cell)
            overrides.update(_seed_overrides(cfg, seed))
            overrides["label"] = f"{cell_label}_seed{seed}"
            cell_cfg = _with_overrides(cfg, overrides)
            out_dir = os.path.join(out_root, cell_dir, f"seed{seed}")
            logs.append(cmd_run(cell_cfg, out_dir))
        rows.append(_summary_row(cell_label, logs))
    write_lines(os.path.join(out_root, SUMMARY_CSV), [SUMMARY_HEADER, *rows])


def cmd_emit_curves(run_dirs: list[str], out_path: str) -> None:
    """Long-format (task_index, label, map) CSV, task 0 = direct inference."""
    if not run_dirs:
        raise ConfigError("emit-curves needs at least one run directory")
    seen: set[str] = set()
    lines = [CURVES_HEADER]
    for d in run_dirs:
        try:
            lg = RunLog.load(d)
            cfg = parse_config(None, lg.config)
        except (OSError, ValueError) as e:
            raise ValueError(f"{d}: {e}") from e
        label = cfg.label or os.path.basename(os.path.normpath(d))
        if label in seen:
            raise ConfigError(f"duplicate run label {label!r}; labels must be distinct")
        seen.add(label)
        by_task = lg.full_map_by_task()
        if sorted(by_task) != list(range(cfg.n_tasks + 1)):
            raise ConfigError(
                f"run {d} is incomplete: tasks {sorted(by_task)} != 0..{cfg.n_tasks}")
        for task in sorted(by_task):
            lines.append(f"{task},{label},{fmt(by_task[task])}")
    write_lines(out_path, lines)


def cmd_audit(out_root: str) -> list[str]:
    """Re-derive every summary number from the per-run logs; also re-check
    per-row loss accounting. Returns a list of problems (empty = clean)."""
    problems = []
    summary_path = os.path.join(out_root, SUMMARY_CSV)
    run_dirs = []
    for dirpath, _, filenames in os.walk(out_root):
        if METRICS_CSV in filenames and CONFIG_TXT in filenames:
            run_dirs.append(dirpath)
    if not run_dirs:
        return [f"no run directories under {out_root}"]

    by_label_prefix: dict[str, list[RunLog]] = {}
    for d in sorted(run_dirs):
        try:
            lg = RunLog.load(d)
            cfg = parse_config(None, lg.config)
        except (OSError, ValueError) as e:
            problems.append(f"{d}: unreadable ({e})")
            continue
        for row in lg.loss_rows:
            expect = row.l_reid + cfg.lambda_kd * row.l_kd + cfg.lambda_mmd * row.l_mmd
            if expect != row.total:
                problems.append(
                    f"{d}: loss accounting broken at task {row.task} "
                    f"iteration {row.iteration}: {row.total!r} != {expect!r}")
                break
        prefix = cfg.label.rsplit("_seed", 1)[0] if "_seed" in cfg.label else cfg.label
        by_label_prefix.setdefault(prefix, []).append(lg)

    if os.path.exists(summary_path):
        lines = read_lines(summary_path)
        if next(lines, None) != SUMMARY_HEADER:
            problems.append(f"{summary_path}: unexpected header")
        else:
            for line in lines:
                label = line.split(",", 1)[0]
                logs = by_label_prefix.get(label)
                if not logs:
                    problems.append(f"{summary_path}: no runs found for {label!r}")
                    continue
                recomputed = _summary_row(label, sorted(logs, key=lambda lg: lg.seed))
                if recomputed != line:
                    problems.append(
                        f"{summary_path}: row for {label!r} is not recomputable "
                        f"from its run logs")
    return problems


def cmd_gen_data(cfg: ExperimentConfig, out_dir: str) -> float:
    data, ratio = generate_synthetic(cfg)
    os.makedirs(out_dir, exist_ok=True)
    save_feature_file(os.path.join(out_dir, "source_train.txt"), data.source)
    save_feature_file(os.path.join(out_dir, "target_train.txt"), data.target_train)
    save_feature_file(os.path.join(out_dir, "target_query.txt"), data.target_query)
    save_feature_file(os.path.join(out_dir, "target_gallery.txt"), data.target_gallery)
    return ratio


def cmd_eval(query_path: str, gallery_path: str, checkpoint_path: str) -> str:
    query = _load_role_file(query_path, "data_target_query_file")
    gallery = _load_role_file(gallery_path, "data_target_gallery_file")
    model = MLP.from_checkpoint(checkpoint_path)
    for path, ds in ((query_path, query), (gallery_path, gallery)):
        d_in = ds.descriptor_matrix().shape[1]
        if d_in != model.d_in:
            raise ValueError(f"{checkpoint_path}: input width {model.d_in} != "
                             f"{path} D_IN {d_in}")
    report = evaluate(query, gallery, model)
    return (f"map,{fmt(report.map_score)}\nrank1,{fmt(report.rank1)}\n"
            f"rank5,{fmt(report.cmc_at(5))}\nn_queries,{report.n_queries}\n"
            f"n_excluded,{report.n_excluded}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value config file")
    for f in fields(ExperimentConfig):
        p.add_argument(f"--{f.name}", dest=f"cfg_{f.name}", default=None,
                       metavar="VALUE")


def _collect_overrides(args) -> dict[str, str]:
    return {f.name: getattr(args, f"cfg_{f.name}")
            for f in fields(ExperimentConfig)
            if getattr(args, f"cfg_{f.name}", None) is not None}


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds: cannot parse seed list {text!r}")
    if not seeds:
        raise ConfigError(f"--seeds: seed list {text!r} names no seed")
    # checked before the first run: each seed trains into its own seed<N>
    # directory, and the summary's mean and std count every seed once
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ConfigError(f"--seeds: seed must be >= 0, got {seed} in {text!r}")
        if seed in seeds[:i]:
            raise ConfigError(f"--seeds: seed {seed} repeated in {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="streamreid")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single training run")
    _add_config_flags(p_run)
    p_run.add_argument("--out", default=None)

    p_grid = sub.add_parser("grid", help="ablation grid over enum/bool axes")
    _add_config_flags(p_grid)
    p_grid.add_argument("--axis", action="append", default=[],
                        help="key=v1,v2 (repeatable)")
    p_grid.add_argument("--seeds", default="0")
    p_grid.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="seed sweep of one config")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seeds", default="0,1,2")
    p_sweep.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on feature files")
    p_eval.add_argument("--query", required=True)
    p_eval.add_argument("--gallery", required=True)
    p_eval.add_argument("--checkpoint", required=True)

    p_gen = sub.add_parser("gen-data", help="write synthetic feature files")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", default=None)

    p_curves = sub.add_parser("emit-curves", help="per-task mAP curves CSV")
    p_curves.add_argument("--runs", nargs="+", required=True)
    p_curves.add_argument("--out-file", required=True)

    p_audit = sub.add_parser("audit", help="verify summary CSVs are recomputable")
    p_audit.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if hasattr(args, "config"):     # run, grid, sweep and gen-data
            cfg = parse_config(args.config, _collect_overrides(args))
        if args.command == "run":
            runlog = cmd_run(cfg, _out_root(args))
            final = runlog.final_full_row()
            print(f"final mAP {final.map_score:.4f} rank1 {final.rank1:.4f}")
        elif args.command in ("grid", "sweep"):
            axes = _parse_axes(args.axis) if args.command == "grid" else {}
            cmd_grid(cfg, axes, _seed_list(args.seeds), _out_root(args))
            print(f"{args.command} complete: {_out_root(args)}")
        elif args.command == "eval":
            print(cmd_eval(args.query, args.gallery, args.checkpoint))
        elif args.command == "gen-data":
            ratio = cmd_gen_data(cfg, _out_root(args))
            print(f"separation ratio {ratio:.4f}")
        elif args.command == "emit-curves":
            cmd_emit_curves(args.runs, args.out_file)
            print(f"curves written: {args.out_file}")
        elif args.command == "audit":
            problems = cmd_audit(_out_root(args))
            for p in problems:
                print(f"AUDIT FAIL: {p}", file=sys.stderr)
            print("audit clean" if not problems else f"{len(problems)} problem(s)")
            return 1 if problems else 0
    except (ConfigError, OSError, ValueError, DegenerateStreamError,
            TargetRetentionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
