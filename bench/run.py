"""Benchmark entry point: runs one workload for a fixed time, prints metrics.

    python3 bench/run.py --workload sweep-spcl --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. Each round of the workload is a fresh
process (bench/round.py) with OpenBLAS and OpenMP pinned to one thread in
its environment before NumPy loads. Rounds repeat until --seconds is used
up (at least three rounds); the end-to-end metrics are medians over
rounds, in process CPU seconds calibrated to the machine's nominal speed
(calibrate.py). With --trace 1 the rounds alternate untraced and traced,
and the per-layer metrics of the traced rounds are printed instead, with
the tracing overhead. The last line of standard output is one JSON
object; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402  (needs HERE on the path)
from layertrace import LAYER_METRICS  # noqa: E402

MIN_ROUNDS = 3
DEADLINE_S = 170    # a run must end within 180 s whatever the machine does
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH="src", **PINNED)


def run_child(args: list[str], deadline: float) -> str:
    proc = subprocess.run([sys.executable, *args], env=child_env(), text=True,
                          capture_output=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc.stdout


def run_round(workload: str, seed: int, work: str, trace: bool, deadline: float
              ) -> dict:
    t0 = time.monotonic()
    out = run_child([os.path.join(HERE, "round.py"), "--workload", workload,
                     "--seed", str(seed), "--work", work] + (["--trace"] if trace else []),
                    deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    if result["threads"] != 1:
        raise BenchError(f"BLAS pin did not take effect: the round ran "
                         f"{result['threads']} threads")
    return result


def measure(workload: str, seed: int, seconds: float, work: str, trace: bool,
            deadline: float) -> list[dict]:
    """Rounds (untraced/traced pairs with --trace) until the next would
    overrun --seconds, at least MIN_ROUNDS."""
    rounds, walls = [], []
    t0 = time.monotonic()
    while True:
        unit_t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            rounds.append(run_round(workload, seed, work, traced, deadline))
        walls.append(time.monotonic() - unit_t0)
        enough = trace or len(rounds) >= MIN_ROUNDS
        if enough and time.monotonic() - t0 + statistics.median(walls) > seconds:
            return rounds


def steps_per_cpu_s(rnd: dict, calibrate: bool = True) -> float:
    """Optimizer steps per CPU second over the round's completed runs.

    Calibrated, each run's CPU time is scaled by the machine's speed
    around it (calibrate.py): the CPU seconds it would take at nominal speed.
    """
    done = [r for r in rnd["runs"] if "cpu_s" in r]
    if not done:
        raise BenchError("no run of the round completed")
    cpu = sum(r["cpu_s"] * (r["speed"] if calibrate else 1.0) for r in done)
    return sum(r["steps"] for r in done) / cpu


def report(rounds: list[dict], trace: bool) -> dict:
    runs = [r for rnd in rounds for r in rnd["runs"]]
    failed = [r for r in runs if "error" in r or r["problems"]]
    correct = all(r.get("expected", True) and not r.get("problems") for r in runs)
    for r in failed:
        print(f"run seed {r['seed']} failed: {r.get('error') or r['problems']}")

    untraced = [rnd for rnd in rounds if "layers" not in rnd]
    rate = statistics.median(steps_per_cpu_s(rnd) for rnd in untraced)
    if trace:
        traced = [rnd for rnd in rounds if "layers" in rnd]
        metrics = {name: {"value": statistics.median(rnd["layers"][name] for rnd in traced),
                          "unit": unit} for name, unit, _ in LAYER_METRICS}
        overhead = rate / statistics.median(steps_per_cpu_s(rnd) for rnd in traced) - 1.0
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(rnd["setup_s"] * rnd["setup_speed"]
                                                   for rnd in rounds), "unit": "s"},
            "steps_per_cpu_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(rnd["peak_rss_mb"] for rnd in rounds),
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"runs attempted {len(runs)}, failed {len(failed)}")
    run_walls = [r["wall_s"] for rnd in untraced for r in rnd["runs"] if "wall_s" in r]
    print(f"reference only, medians over {len(rounds)} rounds: wall "
          f"{statistics.median(run_walls):.2f} s per run, "
          f"machine speed {statistics.median(r['setup_speed'] for r in rounds):.3f}"
          " of nominal, "
          f"uncalibrated setup_s {statistics.median(r['setup_s'] for r in rounds):.4f}, "
          "uncalibrated steps_per_cpu_s "
          f"{statistics.median(steps_per_cpu_s(r, False) for r in untraced):.2f}")
    return {"correct": correct, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join("src", "streamreid", "cli.py"))
            and os.path.isfile(workloads.BASE_CONFIG)):
        print("error: run from the root of a streamreid checkout "
              "(src/streamreid and configs/benchmark.cfg not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = workloads.WORKLOADS[args.workload]
    work = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if spec.get("files"):
            run_child(["-m", "streamreid.cli",
                       *workloads.gen_data_args(spec, spec["seeds"][0], work)], deadline)
        rounds = measure(args.workload, args.seed, args.seconds, work, bool(args.trace),
                         deadline)
        result = report(rounds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
