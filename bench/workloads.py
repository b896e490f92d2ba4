"""The benchmark's workloads: config overrides on configs/benchmark.cfg.

Each run takes the overrides `streamreid sweep` applies per seed: the run
seed, and the same seed for the synthetic data. The run seeds are fixed
per workload. --seed only rotates the order in which a sweep's runs
execute, so the same --seed always gives the same inputs.
"""

from __future__ import annotations

import os

BASE_CONFIG = os.path.join("configs", "benchmark.cfg")

# ROADMAP's 10x config: about 1,200 samples per task instead of 72
SCALE_10X = {
    "synth_source_ids": "600", "synth_target_ids": "600",
    "synth_samples_per_id": "12", "synth_dim": "32", "synth_strong_dims": "16",
    "epochs_per_task": "3", "pretrain_epochs": "3",
}
DATA_FILES = {
    "data_source_file": "source_train.txt",
    "data_target_train_file": "target_train.txt",
    "data_target_query_file": "target_query.txt",
    "data_target_gallery_file": "target_gallery.txt",
}

WORKLOADS = {
    "sweep-spcl": {"overrides": {}, "seeds": (0, 1, 2)},
    "stream-10x": {"overrides": SCALE_10X, "seeds": (0,), "files": True},
    "sweep-classifier": {
        "overrides": {"reid_mode": "StrongBaseline", "accumulate_support": "true",
                      "dbscan_percentile": "2.0"},
        "seeds": (0, 1, 2),
    },
}


def run_order(spec, bench_seed: int) -> list[int]:
    seeds = list(spec["seeds"])
    k = bench_seed % len(seeds)
    return seeds[k:] + seeds[:k]


def data_dir(work: str) -> str:
    return os.path.join(work, "data")


def gen_data_args(spec, seed: int, work: str) -> list[str]:
    """`streamreid gen-data` arguments that write a files-mode workload's inputs."""
    args = ["gen-data", "--config", BASE_CONFIG, "--out", data_dir(work),
            "--seed", str(seed), "--synth_seed", str(seed)]
    for key, value in spec["overrides"].items():
        args += [f"--{key}", value]
    return args


def run_overrides(spec, seed: int, work: str) -> dict[str, str]:
    overrides = dict(spec["overrides"], seed=str(seed), label=f"sweep_seed{seed}")
    if spec.get("files"):
        overrides["data_mode"] = "files"
        for key, name in DATA_FILES.items():
            overrides[key] = os.path.join(data_dir(work), name)
    else:
        overrides["synth_seed"] = str(seed)
    return overrides
