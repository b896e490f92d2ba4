"""Golden artifact hashes: the deterministic CSVs and the last task's
student and teacher checkpoints of three pinned runs.

A refactor or speed-up must leave these bytes unchanged. A change that
alters the numerics on purpose updates the hashes in the same commit,
says so in CHANGES.md and re-runs acceptance criteria 6-8.
"""

import hashlib
import os

import pytest

from streamreid.cli import cmd_run, parse_config

BENCH_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.cfg")

GOLDEN = {
    "spcl": ({"seed": "0"}, {
        "losses.csv": "5999ce0014066afcc5a326d10c63a321576f001c9032035e8af7ac7a14c46498",
        "metrics.csv": "8c2be2a3645b52246c142a8330192f485971e1830a39833407ab8d24c83f10f7",
        "clustering.csv": "1dbe0a212e6f9d0c619f593b5226d991d00aaf63df31eec3233782d4cbffc78e",
        "task5_student.ckpt": "891f9e6222733ce621b8f97819926cc5a88c0f561a94cd954a7eb870fbe00d41",
        "task5_teacher.ckpt": "3703c02e6d9f4cf9abf11a9a0f7984f6e99aed944bac8e2a9d3ff173fb057966",
    }),
    "classifier": ({"seed": "0", "reid_mode": "StrongBaseline",
                    "accumulate_support": "true", "dbscan_percentile": "2.0"}, {
        "losses.csv": "efdcba7cb0398219d1960e5a4c21ff403de95f3f6a02830486bd35a814e00a74",
        "metrics.csv": "c68c754947b89f7a58d9ffb4180cface1017357d0013a556164a40d5b580319b",
        "clustering.csv": "882f2a05326eedd5b34dd3d87574b76c24c374eee82c4e5deb348b20e9306881",
        "task5_student.ckpt": "0b4a9ffb48069d86b9164952c17dfa9f572050eb1820c30f8fbf9de84f2c0dc1",
        "task5_teacher.ckpt": "0b53156a0f77fff0498654173730ee45db4e154a08616e2765ae4444ad41b658",
    }),
    # merged Rank1NN support sets: pins the merged row order, which leaves
    # an identity's rows out of source order
    "rank1nn_merge": ({"seed": "0", "support_mode": "Rank1NN",
                       "accumulate_support": "true", "support_cap": "20"}, {
        "losses.csv": "061bd3287af4c5fe048585c06e4eb45379fbb934442d94119f49db1b9a7c80e9",
        "metrics.csv": "3d50b4cc5b6951bfa55f0236a15e740006776f84ea28acad8231f605b4dca10a",
        "clustering.csv": "b367bab113c9f00858d2c61a80e6d945b9ba9f7ce60a30b4082590c0e92d8d44",
        "task5_student.ckpt": "e96448108f1df0572a2288c856b038f0fa97c1268ee36ae80406a030b1de0f1d",
        "task5_teacher.ckpt": "552145305a1c92600b420d00b929d7667f68c0b17d030cf273feabd4ea0811f2",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_benchmark_run_csvs_match_golden_hashes(name, tmp_path):
    overrides, expected = GOLDEN[name]
    cmd_run(parse_config(BENCH_CFG, overrides), str(tmp_path))
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected
