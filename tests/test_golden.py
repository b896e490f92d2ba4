"""Golden artifact hashes: the deterministic CSVs of two pinned runs.

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
    }),
    "classifier": ({"seed": "0", "reid_mode": "StrongBaseline",
                    "accumulate_support": "true", "dbscan_percentile": "2.0"}, {
        "losses.csv": "09a68617bd824304e12e5e42d97f9f45529f853dde4a279f543d0ccd6a3737bf",
        "metrics.csv": "71dc8993286b5755a368d1f6d82c514ba18f920cd8d6251b0cce1c2b208d061a",
        "clustering.csv": "4552f87ef30905d944b3c34e3a0c984553c631d4e3281fb489946519bc5fbffb",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_benchmark_run_csvs_match_golden_hashes(name, tmp_path):
    overrides, expected = GOLDEN[name]
    cmd_run(parse_config(BENCH_CFG, overrides), str(tmp_path))
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected
