"""Command-line front end: runs, grids, seed sweeps, and CSV emission.

Config files are flat ``key = value`` text with ``#`` comments; every key
mirrors a command-line flag ``--key value`` and unknown keys are errors.
Artifacts are plain CSV, deterministic byte-for-byte given config + seed.

Subcommands: run, grid, sweep, eval, gen-data, emit-curves, audit.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .data import (SynthConfig, generate_synthetic, load_feature_file,
                   random_affine_shift, rotation_shift, save_feature_file)
from .distill import SupportMode
from .evaluation import evaluate
from .mlp import MLP, load_checkpoint
from .runlog import CONFIG_TXT, METRICS_CSV, RunLog, fmt
from .trainer import (DegenerateStreamError, ReidMode, RunConfig, RunData,
                      TargetRetentionError, TeacherMode, run)

OUT_ROOT_ENV = "STREAMREID_OUT"

SUMMARY_CSV = "summary.csv"
SUMMARY_HEADER = ("label,n_seeds,final_map_mean,final_map_std,"
                  "final_rank1_mean,final_rank1_std,forgetting_mean,forgetting_std")
CURVES_HEADER = "task_index,label,map"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Trainer config plus data source selection, one flat namespace."""

    # trainer keys (defaults follow the documented run defaults)
    n_tasks: int = 5
    epochs_per_task: int = 20
    pretrain_epochs: int = 20
    batch_p: int = 16
    batch_k: int = 4
    lr: float = 3.5e-4
    weight_decay: float = 5e-4
    alpha: float = 0.999
    lambda_kd: float = 1.0
    lambda_mmd: float = 1.0
    enable_kd: bool = True
    enable_mmd: bool = True
    reid_mode: str = "SpCL"
    support_mode: str = "IdentityExpanded"
    teacher_mode: str = "IterEMA"
    accumulate_support: bool = False
    support_cap: int = 0
    shared_batches: bool = False
    triplet_margin: float = 0.3
    memory_momentum: float = 0.2
    memory_temperature: float = 0.05
    dbscan_percentile: float = 2.0
    dbscan_min_pts: int = 4
    min_cluster_size: int = 4
    hidden_dims: str = "64,32"
    seed: int = 0
    label: str = ""
    # data keys: synthetic generation or pre-extracted feature files
    data_mode: str = "synthetic"            # synthetic | files
    synth_source_ids: int = 60
    synth_target_ids: int = 60
    synth_samples_per_id: int = 8
    synth_dim: int = 16
    synth_intra_std: float = 0.3
    synth_camera_jitter: float = 0.0
    synth_cameras: int = 2
    synth_shift_kind: str = "random"        # identity | random | rotation
    synth_shift_magnitude: float = 1.0
    synth_shift_offset: float = 0.0
    synth_shift_seed: int = 100             # shift map fixed across repetitions
    synth_strong_dims: int = 0              # 0 = isotropic centroids
    synth_weak_scale: float = 0.1
    synth_seed: int = 7
    seed_data_with_run: bool = True         # sweeps/grids tie synth_seed to seed
    data_source_file: str = ""
    data_target_train_file: str = ""
    data_target_query_file: str = ""
    data_target_gallery_file: str = ""

    def effective_label(self) -> str:
        if self.label:
            return self.label
        return (f"kd{int(self.enable_kd)}_mmd{int(self.enable_mmd)}"
                f"_{self.teacher_mode}_seed{self.seed}")

    def to_run_config(self) -> RunConfig:
        try:
            hidden = tuple(int(h) for h in self.hidden_dims.split(",") if h.strip())
        except ValueError:
            raise ConfigError(f"key hidden_dims: cannot parse {self.hidden_dims!r}")
        try:
            cfg = RunConfig(
                n_tasks=self.n_tasks, epochs_per_task=self.epochs_per_task,
                pretrain_epochs=self.pretrain_epochs, batch_p=self.batch_p,
                batch_k=self.batch_k, lr=self.lr, weight_decay=self.weight_decay,
                alpha=self.alpha, lambda_kd=self.lambda_kd,
                lambda_mmd=self.lambda_mmd, enable_kd=self.enable_kd,
                enable_mmd=self.enable_mmd, reid_mode=ReidMode(self.reid_mode),
                support_mode=SupportMode(self.support_mode),
                teacher_mode=TeacherMode(self.teacher_mode),
                accumulate_support=self.accumulate_support,
                support_cap=self.support_cap, shared_batches=self.shared_batches,
                triplet_margin=self.triplet_margin,
                memory_momentum=self.memory_momentum,
                memory_temperature=self.memory_temperature,
                dbscan_percentile=self.dbscan_percentile,
                dbscan_min_pts=self.dbscan_min_pts,
                min_cluster_size=self.min_cluster_size,
                hidden_dims=hidden, seed=self.seed,
            )
            cfg.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return cfg

    def snapshot(self) -> dict[str, str]:
        return {f.name: value_to_str(getattr(self, f.name)) for f in fields(self)}


def value_to_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(key: str, text: str, target_type: type):
    text = text.strip()
    try:
        if target_type is bool:
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError as e:
        raise ConfigError(f"key {key}: {e}") from e


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_TYPE_MAP = {"int": int, "float": float, "bool": bool, "str": str}


def parse_config(path: str | None,
                 overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Key-value config file plus overrides; overrides win; unknown keys
    are errors naming the key and its location."""
    cfg = ExperimentConfig()

    def apply(key: str, raw: str, where: str):
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r} ({where})")
        target = _TYPE_MAP[_FIELD_TYPES[key]]
        setattr(cfg, key, _parse_value(key, raw, target))

    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="ascii") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, raw = line.partition("=")
                apply(key.strip(), raw, f"{path}:{lineno}")
    for key, raw in (overrides or {}).items():
        apply(key, raw, "command line")
    cfg.to_run_config()   # validation side effect
    return cfg


def build_data(cfg: ExperimentConfig) -> RunData:
    if cfg.data_mode == "files":
        missing = [k for k in ("data_source_file", "data_target_train_file",
                               "data_target_query_file", "data_target_gallery_file")
                   if not getattr(cfg, k)]
        if missing:
            raise ConfigError(f"data_mode=files needs keys: {', '.join(missing)}")
        return RunData(load_feature_file(cfg.data_source_file),
                       load_feature_file(cfg.data_target_train_file),
                       load_feature_file(cfg.data_target_query_file),
                       load_feature_file(cfg.data_target_gallery_file))
    if cfg.data_mode != "synthetic":
        raise ConfigError(f"unknown data_mode {cfg.data_mode!r}")
    res = generate_synthetic(synth_config(cfg))
    return RunData(res.source, res.target_train, res.target_query,
                   res.target_gallery)


def synth_config(cfg: ExperimentConfig) -> SynthConfig:
    d = cfg.synth_dim
    if cfg.synth_shift_kind == "identity" or cfg.synth_shift_magnitude == 0.0:
        from .data import AffineShift
        shift = AffineShift.identity(d)
    elif cfg.synth_shift_kind == "random":
        shift = random_affine_shift(d, cfg.synth_shift_magnitude,
                                    seed=cfg.synth_shift_seed)
    elif cfg.synth_shift_kind == "rotation":
        shift = rotation_shift(d, cfg.synth_shift_magnitude * math.pi / 2,
                               seed=cfg.synth_shift_seed,
                               offset_scale=cfg.synth_shift_offset)
    else:
        raise ConfigError(f"unknown synth_shift_kind {cfg.synth_shift_kind!r}")
    scales = None
    if cfg.synth_strong_dims > 0:
        k = min(cfg.synth_strong_dims, d)
        scales = (1.0,) * k + (cfg.synth_weak_scale,) * (d - k)
    return SynthConfig(
        n_identities_source=cfg.synth_source_ids,
        n_identities_target=cfg.synth_target_ids,
        samples_per_identity=cfg.synth_samples_per_id,
        d_in=d, intra_class_std=cfg.synth_intra_std, domain_shift=shift,
        camera_count=cfg.synth_cameras,
        camera_jitter_std=cfg.synth_camera_jitter,
        seed=cfg.synth_seed, centroid_scales=scales,
    )


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
    runlog = run(cfg.to_run_config(), data, config_snapshot=cfg.snapshot(),
                 checkpoint_dir=out_dir)
    runlog.save(out_dir)
    return runlog


GRID_AXES = {"enable_kd", "enable_mmd", "reid_mode", "support_mode",
             "teacher_mode", "accumulate_support", "shared_batches"}


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
        axes[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[key]:
            raise ConfigError(f"axis {key!r} has no values")
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


def _write_summary(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(SUMMARY_HEADER + "\n")
        for row in rows:
            f.write(row + "\n")


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
    rows = []
    keys = sorted(axes)
    for combo in itertools.product(*(axes[k] for k in keys)):
        cell = dict(zip(keys, combo))
        cell_label = "_".join(f"{k}-{v}" for k, v in cell.items())
        logs = []
        for seed in seeds:
            overrides = dict(cell)
            overrides.update(_seed_overrides(cfg, seed))
            overrides["label"] = f"{cell_label}_seed{seed}"
            cell_cfg = _with_overrides(cfg, overrides)
            out_dir = os.path.join(out_root, cell_label, f"seed{seed}")
            logs.append(cmd_run(cell_cfg, out_dir))
        rows.append(_summary_row(cell_label, logs))
    _write_summary(os.path.join(out_root, SUMMARY_CSV), rows)


def cmd_sweep(cfg: ExperimentConfig, seeds: list[int], out_root: str) -> None:
    logs = []
    base_label = cfg.label or "sweep"
    for seed in seeds:
        overrides = _seed_overrides(cfg, seed)
        overrides["label"] = f"{base_label}_seed{seed}"
        sweep_cfg = _with_overrides(cfg, overrides)
        logs.append(cmd_run(sweep_cfg, os.path.join(out_root, f"seed{seed}")))
    _write_summary(os.path.join(out_root, SUMMARY_CSV),
                   [_summary_row(base_label, logs)])


def _with_overrides(cfg: ExperimentConfig, overrides: dict[str, str]
                    ) -> ExperimentConfig:
    out = dataclasses.replace(cfg)
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(out, key, _parse_value(key, raw, _TYPE_MAP[_FIELD_TYPES[key]]))
    out.to_run_config()
    return out


def cmd_emit_curves(run_dirs: list[str], out_path: str) -> None:
    """Long-format (task_index, label, map) CSV, task 0 = direct inference."""
    if not run_dirs:
        raise ConfigError("emit-curves needs at least one run directory")
    seen: set[str] = set()
    lines = []
    for d in run_dirs:
        lg = RunLog.load(d)
        label = lg.config.get("label", "") or os.path.basename(os.path.normpath(d))
        if label in seen:
            raise ConfigError(f"duplicate run label {label!r}; labels must be distinct")
        seen.add(label)
        by_task = lg.full_map_by_task()
        expected = int(lg.config.get("n_tasks", "0"))
        if sorted(by_task) != list(range(expected + 1)):
            raise ConfigError(
                f"run {d} is incomplete: tasks {sorted(by_task)} != 0..{expected}")
        for task in sorted(by_task):
            lines.append(f"{task},{label},{fmt(by_task[task])}")
    with open(out_path, "w", encoding="ascii", newline="\n") as f:
        f.write(CURVES_HEADER + "\n")
        for line in lines:
            f.write(line + "\n")


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
        lam_kd = float(lg.config.get("lambda_kd", "1.0"))
        lam_mmd = float(lg.config.get("lambda_mmd", "1.0"))
        for row in lg.loss_rows:
            expect = row.l_reid + lam_kd * row.l_kd + lam_mmd * row.l_mmd
            if expect != row.total:
                problems.append(
                    f"{d}: loss accounting broken at task {row.task} "
                    f"iteration {row.iteration}: {row.total!r} != {expect!r}")
                break
        label = lg.config.get("label", "")
        prefix = label.rsplit("_seed", 1)[0] if "_seed" in label else label
        by_label_prefix.setdefault(prefix, []).append(lg)

    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="ascii") as f:
            lines = f.read().splitlines()
        if not lines or lines[0] != SUMMARY_HEADER:
            problems.append(f"{summary_path}: unexpected header")
        else:
            for line in lines[1:]:
                label = line.split(",", 1)[0]
                logs = by_label_prefix.get(label)
                if not logs:
                    problems.append(f"{summary_path}: no runs found for {label!r}")
                    continue
                logs = sorted(logs, key=lambda lg: int(lg.config.get("seed", "0")))
                recomputed = _summary_row(label, logs)
                if recomputed != line:
                    problems.append(
                        f"{summary_path}: row for {label!r} is not recomputable "
                        f"from its run logs")
    return problems


def cmd_gen_data(cfg: ExperimentConfig, out_dir: str) -> float:
    res = generate_synthetic(synth_config(cfg))
    os.makedirs(out_dir, exist_ok=True)
    save_feature_file(os.path.join(out_dir, "source_train.txt"), res.source)
    save_feature_file(os.path.join(out_dir, "target_train.txt"), res.target_train)
    save_feature_file(os.path.join(out_dir, "target_query.txt"), res.target_query)
    save_feature_file(os.path.join(out_dir, "target_gallery.txt"), res.target_gallery)
    return res.separation_ratio


def cmd_eval(query_path: str, gallery_path: str, checkpoint_path: str) -> str:
    query = load_feature_file(query_path)
    gallery = load_feature_file(gallery_path)
    params = load_checkpoint(checkpoint_path)
    dims = _layer_dims_from_params(params)
    model = MLP(dims, seed=0)
    model.set_params(params)
    report = evaluate(query, gallery, model)
    return (f"map,{fmt(report.map_score)}\nrank1,{fmt(report.rank1)}\n"
            f"rank5,{fmt(report.cmc_at(5))}\nn_queries,{report.n_queries}\n"
            f"n_excluded,{report.n_excluded}")


def _layer_dims_from_params(params) -> list[int]:
    dims = []
    i = 0
    while f"layer{i}.W" in params:
        w = params[f"layer{i}.W"]
        if not dims:
            dims.append(w.shape[0])
        dims.append(w.shape[1])
        i += 1
    if len(dims) < 2:
        raise ValueError("checkpoint holds no extractor layers")
    return dims


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
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse seed list {text!r}")


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
        if args.command == "run":
            cfg = parse_config(args.config, _collect_overrides(args))
            runlog = cmd_run(cfg, _out_root(args))
            final = runlog.final_full_row()
            print(f"final mAP {final.map_score:.4f} rank1 {final.rank1:.4f}")
        elif args.command == "grid":
            cfg = parse_config(args.config, _collect_overrides(args))
            cmd_grid(cfg, _parse_axes(args.axis), _seed_list(args.seeds),
                     _out_root(args))
            print(f"grid complete: {_out_root(args)}")
        elif args.command == "sweep":
            cfg = parse_config(args.config, _collect_overrides(args))
            cmd_sweep(cfg, _seed_list(args.seeds), _out_root(args))
            print(f"sweep complete: {_out_root(args)}")
        elif args.command == "eval":
            print(cmd_eval(args.query, args.gallery, args.checkpoint))
        elif args.command == "gen-data":
            cfg = parse_config(args.config, _collect_overrides(args))
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
    except (ConfigError, FileNotFoundError, ValueError, DegenerateStreamError,
            TargetRetentionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
