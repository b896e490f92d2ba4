"""Run artifacts: per-iteration losses, per-task metrics, clustering reports.

Everything lands in plain CSV with round-trippable float formatting, so a
run directory is byte-reproducible from its config and seed. Wall-clock
timings go to a separate text file to keep the CSVs deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass
class LossRow:
    task: int
    iteration: int
    l_reid: float
    l_kd: float
    l_mmd: float
    total: float
    lr: float
    sigma_mmd: float

    def to_csv(self) -> str:
        return ",".join([str(self.task), str(self.iteration), fmt(self.l_reid),
                         fmt(self.l_kd), fmt(self.l_mmd), fmt(self.total),
                         fmt(self.lr), fmt(self.sigma_mmd)])


@dataclass
class EvalRow:
    task: int
    scope: str          # "full" or "task<k>"
    map_score: float
    rank1: float
    rank5: float
    n_queries: int
    n_excluded: int

    def to_csv(self) -> str:
        return ",".join([str(self.task), self.scope, fmt(self.map_score),
                         fmt(self.rank1), fmt(self.rank5),
                         str(self.n_queries), str(self.n_excluded)])


@dataclass
class ClusterRow:
    task: int
    epoch: int
    n_clusters: int
    outlier_fraction: float
    eps: float

    def to_csv(self) -> str:
        return ",".join([str(self.task), str(self.epoch), str(self.n_clusters),
                         fmt(self.outlier_fraction), fmt(self.eps)])


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

        def write(name, header, rows):
            with open(os.path.join(out_dir, name), "w", encoding="ascii",
                      newline="\n") as f:
                f.write(header + "\n")
                for r in rows:
                    f.write(r.to_csv() + "\n")

        write(LOSSES_CSV, LOSS_HEADER, self.loss_rows)
        write(METRICS_CSV, METRIC_HEADER, self.eval_rows)
        write(CLUSTERING_CSV, CLUSTER_HEADER, self.cluster_rows)
        with open(os.path.join(out_dir, CONFIG_TXT), "w", encoding="ascii",
                  newline="\n") as f:
            for k in sorted(self.config):
                f.write(f"{k} = {self.config[k]}\n")
        with open(os.path.join(out_dir, TIMINGS_TXT), "w", encoding="ascii",
                  newline="\n") as f:
            for k in sorted(self.timings):
                f.write(f"{k}: {self.timings[k]:.3f}s\n")

    @classmethod
    def load(cls, run_dir) -> "RunLog":
        def read_rows(name):
            path = os.path.join(run_dir, name)
            if not os.path.exists(path):
                raise FileNotFoundError(f"incomplete run log: missing {name}")
            with open(path, "r", encoding="ascii") as f:
                lines = f.read().splitlines()
            return lines[0], lines[1:]

        config: dict[str, str] = {}
        cfg_path = os.path.join(run_dir, CONFIG_TXT)
        if not os.path.exists(cfg_path):
            raise FileNotFoundError("incomplete run log: missing config.txt")
        for line in open(cfg_path, "r", encoding="ascii"):
            if line.strip():
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()

        header, lines = read_rows(LOSSES_CSV)
        if header != LOSS_HEADER:
            raise ValueError(f"unexpected losses.csv header: {header!r}")
        loss_rows = []
        for line in lines:
            p = line.split(",")
            loss_rows.append(LossRow(int(p[0]), int(p[1]), float(p[2]), float(p[3]),
                                     float(p[4]), float(p[5]), float(p[6]),
                                     float(p[7])))

        header, lines = read_rows(METRICS_CSV)
        if header != METRIC_HEADER:
            raise ValueError(f"unexpected metrics.csv header: {header!r}")
        eval_rows = []
        for line in lines:
            p = line.split(",")
            eval_rows.append(EvalRow(int(p[0]), p[1], float(p[2]), float(p[3]),
                                     float(p[4]), int(p[5]), int(p[6])))

        header, lines = read_rows(CLUSTERING_CSV)
        if header != CLUSTER_HEADER:
            raise ValueError(f"unexpected clustering.csv header: {header!r}")
        cluster_rows = []
        for line in lines:
            p = line.split(",")
            cluster_rows.append(ClusterRow(int(p[0]), int(p[1]), int(p[2]),
                                           float(p[3]), float(p[4])))

        seed = int(config.get("seed", "0"))
        return cls(config, seed, loss_rows, eval_rows, cluster_rows)
