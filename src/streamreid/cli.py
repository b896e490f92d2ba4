"""Command-line front end: runs, grids, seed sweeps, and CSV emission.

Every config key mirrors a command-line flag ``--key value``; the config
format and its keys are runlog's. Artifacts are plain CSV, deterministic
byte-for-byte given config + seed.

Subcommands: run, grid, sweep, eval, gen-data, emit-curves, audit.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from dataclasses import fields
from enum import Enum

import numpy as np

from .data import (Dataset, Domain, RunData, Split, generate_synthetic,
                   load_feature_file, save_feature_file)
from .evaluation import evaluate
from .mlp import MLP
from .runlog import (CONFIG_TXT, METRICS_CSV, ConfigError, RunConfig, RunLog,
                     _parse_value, _with_overrides, fmt, parse_config,
                     read_lines, write_lines)
from .trainer import DegenerateStreamError, TargetRetentionError, run

OUT_ROOT_ENV = "STREAMREID_OUT"

SUMMARY_CSV = "summary.csv"
SUMMARY_HEADER = ("label,n_seeds,final_map_mean,final_map_std,"
                  "final_rank1_mean,final_rank1_std,forgetting_mean,forgetting_std")
CURVES_HEADER = "task_index,label,map"


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


def build_data(cfg: RunConfig) -> RunData:
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


def cmd_run(cfg: RunConfig, out_dir: str) -> RunLog:
    data = build_data(cfg)
    runlog = run(cfg, data, checkpoint_dir=out_dir)   # config.txt holds every key
    runlog.save(out_dir)
    return runlog


# every boolean or enum key but seed_data_with_run, which picks the data
GRID_AXES = ({f.name for f in fields(RunConfig) if isinstance(f.default, (bool, Enum))}
             - {"seed_data_with_run"})


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


def _seed_overrides(cfg: RunConfig, seed: int) -> dict[str, str]:
    """Per-repetition overrides: the run seed, and (by default) fresh
    synthetic data drawn with the same seed. The shift map stays fixed, so
    repetitions sample the same benchmark."""
    ov = {"seed": str(seed)}
    if cfg.seed_data_with_run and cfg.data_mode == "synthetic":
        ov["synth_seed"] = str(seed)
    return ov


def cmd_grid(cfg: RunConfig, axes: dict[str, list[str]],
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
        except (OSError, ValueError) as e:
            raise ValueError(f"{d}: {e}") from e
        cfg = lg.config
        label = cfg.label or os.path.basename(os.path.normpath(d))
        if "," in label:
            raise ConfigError(f"run {d}: label {label!r} (its directory name) "
                              "contains ',', the CSV cell separator")
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
        except (OSError, ValueError) as e:
            problems.append(f"{d}: unreadable ({e})")
            continue
        cfg = lg.config
        for row in lg.loss_rows:
            expect = row.l_reid + cfg.lambda_kd * row.l_kd + cfg.lambda_mmd * row.l_mmd
            if expect != row.total:
                problems.append(
                    f"{d}: loss accounting broken at task {row.task} "
                    f"iteration {row.iteration}: {row.total!r} != {expect!r}")
                break
        by_label_prefix.setdefault(cfg.label.rsplit("_seed", 1)[0], []).append(lg)

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
                recomputed = _summary_row(label, sorted(logs, key=lambda lg: lg.config.seed))
                if recomputed != line:
                    problems.append(
                        f"{summary_path}: row for {label!r} is not recomputable "
                        f"from its run logs")
    return problems


def cmd_gen_data(cfg: RunConfig, out_dir: str) -> float:
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

# argparse reads "-1e300" and "-.5e2" as options: only "-1" and "-.5"
# look like numbers to it. A value may start with "-" and a digit here.
NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = NEGATIVE_NUMBER
    p.add_argument("--config", default=None, help="flat key=value config file")
    for f in fields(RunConfig):
        p.add_argument(f"--{f.name}", dest=f"cfg_{f.name}", default=None,
                       metavar="VALUE")


def _collect_overrides(args) -> dict[str, str]:
    return {f.name: getattr(args, f"cfg_{f.name}")
            for f in fields(RunConfig)
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
    except (OSError, ValueError, ArithmeticError, DegenerateStreamError,
            TargetRetentionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
