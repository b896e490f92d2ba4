"""The benchmark's contract with the program.

bench/ drives streamreid through public names only: config parsing, data
building, trainer.run and RunLog.save, and with --trace it wraps functions
by the names their callers bind. This test runs one benchmark.cfg run the
way bench/round.py does, in a fresh process with the tracer installed, so
a rename or a changed artifact that would break the benchmark fails here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = """
import json, sys, tempfile
from layertrace import LAYER_METRICS, Tracer
tracer = Tracer()
tracer.install()
import checks, workloads
from streamreid import cli, trainer

spec = workloads.WORKLOADS["sweep-spcl"]
with tempfile.TemporaryDirectory() as work:
    cfg = cli.parse_config(workloads.BASE_CONFIG, workloads.run_overrides(spec, 0, work))
    data = cli.build_data(cfg)
    log = trainer.run(cfg.to_run_config(), data, config_snapshot=cfg.snapshot(),
                      checkpoint_dir=work)
    log.save(work)
    problems = checks.check_run(work, cfg, data.target_query, data.target_gallery)
metrics = tracer.metrics()
print(json.dumps({"problems": problems, "metrics": metrics,
                  "names": [m[0] for m in LAYER_METRICS]}))
"""


def test_benchmark_round_runs_clean_under_the_tracer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    metrics = result["metrics"]
    assert set(result["names"]) == set(metrics)
    # every traced function the run is expected to reach was reached
    called = {k: v for k, v in metrics.items() if k.endswith("_calls")}
    assert called and all(v > 0 for v in called.values()), called
