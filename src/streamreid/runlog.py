"""Run artifacts: per-iteration losses, per-task metrics, clustering reports.

Everything lands in plain CSV with round-trippable float formatting, so a
run directory is byte-reproducible from its config and seed. Wall-clock
timings go to a separate text file to keep the CSVs deterministic. Every
text artifact is written by write_lines and read by read_lines; each CSV
row's format is its row class's fields.
"""

from __future__ import annotations

import functools
import os
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from enum import Enum

from .data import read_ascii_lines
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
    """Canonical config.txt form of a config value; the config parser reads
    it back to the same value."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return fmt(v)
    return str(v)


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
    config: dict[str, str]
    seed: int
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
                    (f"{k} = {self.config[k]}" for k in sorted(self.config)))
        write_lines(os.path.join(out_dir, TIMINGS_TXT),
                    (f"{k}: {self.timings[k]:.3f}s" for k in sorted(self.timings)))

    @classmethod
    def load(cls, run_dir) -> "RunLog":
        config: dict[str, str] = {}
        for line in read_lines(os.path.join(run_dir, CONFIG_TXT)):
            if line.strip():
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()
        tables = [_read_table(run_dir, name, header, row_cls)
                  for name, header, row_cls, _ in _TABLES]
        return cls(config, int(config.get("seed", "0")), *tables)

