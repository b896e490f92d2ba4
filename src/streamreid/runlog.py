"""The run record: its config format both ways, and its CSV artifacts.

A config file is flat ``key = value`` text; ``#`` opens a comment at the
start of a line or after whitespace. The keys are RunConfig's fields,
the synth_* ones inherited from SynthConfig, each parsed by the type of
its default and checked by key name; unknown keys are errors. A run's
config.txt parses back to the config the run used.
Losses, metrics and clustering reports are CSV with round-trippable
floats, so a run directory is byte-reproducible from its config; wall-clock
timings go to a separate text file. Every text artifact is written by
write_lines and read by read_lines; each CSV row's format is its row
class's fields.
"""

from __future__ import annotations

import functools
import math
import os
import re
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from .data import SynthConfig, read_ascii_lines
from .distill import SupportMode
from .evaluation import ForgettingSummary, forgetting_metrics

LOSSES_CSV = "losses.csv"
METRICS_CSV = "metrics.csv"
CLUSTERING_CSV = "clustering.csv"
CONFIG_TXT = "config.txt"
TIMINGS_TXT = "timings.txt"

LOSS_HEADER = "task,iteration,l_reid,l_kd,l_mmd,total,lr,sigma_mmd"
METRIC_HEADER = "task,scope,map,rank1,rank5,n_queries,n_excluded"
CLUSTER_HEADER = "task,epoch,n_clusters,outlier_fraction,eps"

FULL_SCOPE = "full"


def fmt(x: float) -> str:
    """Shortest round-trippable decimal form."""
    return repr(float(x))


def value_to_str(v) -> str:
    """Canonical config.txt form of a config value; _parse_value reads it
    back to the same value."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return fmt(v)
    return str(v)


class ReidMode(Enum):
    SPCL = "SpCL"
    STRONG_BASELINE = "StrongBaseline"


class TeacherMode(Enum):
    TASK_FROZEN = "TaskFrozen"
    TASK_EMA = "TaskEMA"
    ITER_EMA = "IterEMA"


DATA_MODES = ("synthetic", "files")


@dataclass
class RunConfig(SynthConfig):
    """Every config key: the trainer's, synth_*, the label and data source."""

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
    reid_mode: ReidMode = ReidMode.SPCL
    support_mode: SupportMode = SupportMode.IDENTITY_EXPANDED
    teacher_mode: TeacherMode = TeacherMode.ITER_EMA
    accumulate_support: bool = False
    support_cap: int = 0
    triplet_margin: float = 0.3
    memory_momentum: float = 0.2
    memory_temperature: float = 0.05
    dbscan_percentile: float = 2.0
    dbscan_min_pts: int = 4
    min_cluster_size: int = 4
    hidden_dims: tuple[int, ...] = (64, 32)
    seed: int = 0
    label: str = ""
    data_mode: str = "synthetic"            # synthetic | files
    seed_data_with_run: bool = True         # sweeps/grids tie synth_seed to seed
    data_source_file: str = ""
    data_target_train_file: str = ""
    data_target_query_file: str = ""
    data_target_gallery_file: str = ""

    @property
    def batch_size(self) -> int:
        return self.batch_p * self.batch_k

    def snapshot(self) -> dict[str, str]:
        """Every field as its config-file text, in declaration order."""
        return {f.name: value_to_str(getattr(self, f.name))
                for f in fields(self)}

    def validate(self) -> None:
        """Range checks, each naming the one key that failed."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        # batch_p: a PK batch needs two identities for source pre-training
        # and the re-id losses
        floors = {"n_tasks": 1, "epochs_per_task": 1, "pretrain_epochs": 0,
                  "batch_p": 2, "batch_k": 1, "weight_decay": 0, "lambda_kd": 0,
                  "lambda_mmd": 0, "dbscan_min_pts": 1, "min_cluster_size": 1,
                  "support_cap": 0, "triplet_margin": 0, "seed": 0}
        for key, floor in floors.items():
            if getattr(self, key) < floor:
                raise ValueError(f"{key} must be >= {floor}, got {getattr(self, key)}")
        if self.batch_k < 2 and (self.pretrain_epochs > 0
                                 or self.reid_mode is ReidMode.STRONG_BASELINE):
            raise ValueError("batch_k must be >= 2 when a triplet loss runs "
                             "(pretrain_epochs > 0 or reid_mode StrongBaseline): "
                             "an anchor needs a positive in its batch")
        for key in ("lr", "memory_temperature"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("alpha", "memory_momentum"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        if not 0.0 < self.dbscan_percentile < 100.0:
            raise ValueError(f"dbscan_percentile must lie in (0, 100), "
                             f"got {self.dbscan_percentile}")
        if not self.hidden_dims:
            raise ValueError("hidden_dims must hold at least one layer dimension")
        if min(self.hidden_dims) < 1:
            raise ValueError("hidden_dims must be >= 1, got "
                             f"{value_to_str(self.hidden_dims)}")
        self.validate_synth()
        if self.data_mode not in DATA_MODES:
            raise ValueError(f"data_mode must be one of {', '.join(DATA_MODES)}, "
                             f"got {self.data_mode!r}")
        if "," in self.label:   # a cell of summary.csv and of emit-curves' CSV
            raise ValueError(f"key label: {self.label!r} contains ',', "
                             "the CSV cell separator")

    def to_run_config(self) -> RunConfig:
        """A copy the caller may change; bench/ still calls it."""
        return replace(self)


class ConfigError(ValueError):
    pass


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

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
                 overrides: dict[str, str] | None = None) -> RunConfig:
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
    return _with_overrides(RunConfig(**values), overrides or {})


def _with_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """The one place a failed range check becomes a ConfigError."""
    out = replace(cfg, **{key: _parse_value(key, raw, "command line")
                          for key, raw in overrides.items()})
    try:
        out.validate()
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return out


@functools.cache
def _columns(row_cls) -> tuple[tuple[str, type], ...]:
    """(name, declared type) of each field, in order; looked up once per class."""
    hints = typing.get_type_hints(row_cls)
    return tuple((f.name, hints[f.name]) for f in fields(row_cls))


class CsvRow:
    """A CSV row whose cells are its dataclass fields in order: a float
    field is written by fmt, any other by str, and each cell is read back
    by its field's declared type."""

    def to_csv(self) -> str:
        return ",".join(fmt(getattr(self, name)) if typ is float
                        else str(getattr(self, name))
                        for name, typ in _columns(type(self)))

    @classmethod
    def from_csv(cls, line: str):
        cols = _columns(cls)
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError(f"expected {len(cols)} cells, got {len(cells)}")
        return cls(*(typ(cell) for (_, typ), cell in zip(cols, cells)))


@dataclass
class LossRow(CsvRow):
    task: int
    iteration: int
    l_reid: float
    l_kd: float
    l_mmd: float
    total: float
    lr: float
    sigma_mmd: float


@dataclass
class EvalRow(CsvRow):
    task: int
    scope: str          # "full" or "task<k>"
    map_score: float    # the "map" column
    rank1: float
    rank5: float
    n_queries: int
    n_excluded: int


@dataclass
class ClusterRow(CsvRow):
    task: int
    epoch: int
    n_clusters: int
    outlier_fraction: float
    eps: float


def write_lines(path, lines: Iterable[str]) -> None:
    """The one writer of text artifacts: ASCII, one LF after every line."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


def read_lines(path) -> Iterator[str]:
    """The one reader of text artifacts, read_ascii_lines' stream; errors
    name the file by its base name, since the caller knows the run directory."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"incomplete run log: missing {name}")
    return read_ascii_lines(path, name)


def _read_table(run_dir, name: str, header: str, row_cls) -> list:
    """The rows of one CSV artifact; a bad header (an empty file has none)
    or a malformed row raises ValueError naming the file and line."""
    lines = read_lines(os.path.join(run_dir, name))
    first = next(lines, "")
    if first != header:
        raise ValueError(f"{name} line 1: unexpected header "
                         f"{first!r}, expected {header!r}")
    rows = []
    for lineno, line in enumerate(lines, 2):
        try:
            rows.append(row_cls.from_csv(line))
        except ValueError as e:
            raise ValueError(f"{name} line {lineno}: {e}") from e
    return rows


# each CSV artifact: file, header, row class and RunLog attribute
_TABLES = ((LOSSES_CSV, LOSS_HEADER, LossRow, "loss_rows"),
           (METRICS_CSV, METRIC_HEADER, EvalRow, "eval_rows"),
           (CLUSTERING_CSV, CLUSTER_HEADER, ClusterRow, "cluster_rows"))


@dataclass
class RunLog:
    config: RunConfig
    loss_rows: list[LossRow] = field(default_factory=list)
    eval_rows: list[EvalRow] = field(default_factory=list)
    cluster_rows: list[ClusterRow] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    # -- queries ------------------------------------------------------------

    def full_map_by_task(self) -> dict[int, float]:
        return {r.task: r.map_score for r in self.eval_rows if r.scope == FULL_SCOPE}

    def final_full_row(self) -> EvalRow:
        rows = [r for r in self.eval_rows if r.scope == FULL_SCOPE]
        if not rows:
            raise ValueError("run log has no full-scope evaluation rows")
        return max(rows, key=lambda r: r.task)

    def slice_histories(self) -> dict[int, list[tuple[int, float]]]:
        hist: dict[int, list[tuple[int, float]]] = {}
        for r in self.eval_rows:
            if r.scope.startswith("task"):
                hist.setdefault(int(r.scope[4:]), []).append((r.task, r.map_score))
        for h in hist.values():
            h.sort(key=lambda t: t[0])
        return hist

    def forgetting(self) -> ForgettingSummary:
        return forgetting_metrics(self.slice_histories())

    # -- persistence ----------------------------------------------------------

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        for name, header, _, attr in _TABLES:
            write_lines(os.path.join(out_dir, name),
                        [header, *(r.to_csv() for r in getattr(self, attr))])
        write_lines(os.path.join(out_dir, CONFIG_TXT),
                    (f"{k} = {v}" for k, v in sorted(self.config.snapshot().items())))
        write_lines(os.path.join(out_dir, TIMINGS_TXT),
                    (f"{k}: {self.timings[k]:.3f}s" for k in sorted(self.timings)))

    @classmethod
    def load(cls, run_dir) -> "RunLog":
        """The tables first, then config.txt; errors name the file."""
        tables = [_read_table(run_dir, name, header, row_cls)
                  for name, header, row_cls, _ in _TABLES]
        return cls(parse_config(os.path.join(run_dir, CONFIG_TXT)), *tables)

