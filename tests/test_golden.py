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
        "losses.csv": "9c5414b2f6a93381f5ac4101d54b3151549b6fc7753626e338f7e35f8a527a56",
        "metrics.csv": "8c2be2a3645b52246c142a8330192f485971e1830a39833407ab8d24c83f10f7",
        "clustering.csv": "f7cc7a2e346ab6886d5f77c64014835fa91d1c24916917959d029e742955c853",
        "task5_student.ckpt": "c2c42bc4e89f9b4c65a9139de64d372020d9ba25e0c03ed0945c0c672d053224",
        "task5_teacher.ckpt": "54040d6afd24346252570c1f8088dab3d8b4aa24ef3c38a81d6eb52bf54cf18a",
    }),
    "classifier": ({"seed": "0", "reid_mode": "StrongBaseline",
                    "accumulate_support": "true", "dbscan_percentile": "2.0"}, {
        "losses.csv": "09a68617bd824304e12e5e42d97f9f45529f853dde4a279f543d0ccd6a3737bf",
        "metrics.csv": "71dc8993286b5755a368d1f6d82c514ba18f920cd8d6251b0cce1c2b208d061a",
        "clustering.csv": "4552f87ef30905d944b3c34e3a0c984553c631d4e3281fb489946519bc5fbffb",
        "task5_student.ckpt": "6c6e69431aef1622cd5a423056be9a787812ee6f0e33365178d7c0f2c85a558c",
        "task5_teacher.ckpt": "499070cd5a5fc809415052f4ab6d88661b0f214e195110b35a915414ac98dc48",
    }),
    # merged Rank1NN support sets: pins the merged row order, which leaves
    # an identity's rows out of source order
    "rank1nn_merge": ({"seed": "0", "support_mode": "Rank1NN",
                       "accumulate_support": "true", "support_cap": "20"}, {
        "losses.csv": "304355f30c47f98e5e038e0ea7f888a0b07170759891e537984705d2aba7de11",
        "metrics.csv": "3d50b4cc5b6951bfa55f0236a15e740006776f84ea28acad8231f605b4dca10a",
        "clustering.csv": "9135ecef8f43e0c0b1970cbf563ebf4f7f0eb84c67b5da8516d7cb3911da91a5",
        "task5_student.ckpt": "4964a8c8f73d9310a50ea2f08a6934a16e3d934047583a29573c13dc5746c104",
        "task5_teacher.ckpt": "b7c836151d9ea9bbc9ba10361a36724919879b4810fe29a15e4ebe7c12468e4b",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_benchmark_run_csvs_match_golden_hashes(name, tmp_path):
    overrides, expected = GOLDEN[name]
    cmd_run(parse_config(BENCH_CFG, overrides), str(tmp_path))
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected
