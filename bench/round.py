"""One round of a benchmark workload, in a process of its own.

Started by run.py with the BLAS pinned to one thread in the environment
and PYTHONPATH pointing at the checkout's src/. The round parses the
config and builds the data of every run (set-up), then trains each run as
`streamreid sweep` would, times it in process CPU seconds, and checks
its outputs. The calibration kernel (calibrate.py) is timed before and
after the set-up and after every run. Prints one JSON object as its last
line.

    python3 bench/round.py --workload sweep-spcl --seed 0 --work DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import workloads


def proc_status(key: str) -> int:
    """A number from /proc/self/status: Threads, or VmHWM in kB.

    VmHWM is the peak RSS of this address space only; getrusage's
    ru_maxrss would also count the parent's peak inherited across exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(f"{key}:"):
                return int(line.split()[1])
    raise RuntimeError(f"no {key} line in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    import checks
    from calibrate import NOMINAL_S, Calibrator
    from streamreid import cli, trainer

    # set-up: imports, then config and data for every run of the round;
    # the calibration kernel runs around it and is left out of it
    imports_s = time.process_time()
    calibrator = Calibrator()
    kernel_s = [calibrator.kernel_s()]
    c0 = time.process_time()
    configs = []
    for run_seed in workloads.run_order(spec, args.seed):
        cfg = cli.parse_config(workloads.BASE_CONFIG,
                               workloads.run_overrides(spec, run_seed, args.work))
        configs.append((cfg, cli.build_data(cfg)))
    setup_s = imports_s + time.process_time() - c0
    kernel_s.append(calibrator.kernel_s())
    setup_speed = NOMINAL_S / (sum(kernel_s) / 2)

    out_root = os.path.join(args.work, f"round{os.getpid()}")
    runs = []
    for cfg, data in configs:
        out_dir = os.path.join(out_root, f"seed{cfg.seed}")
        os.makedirs(out_dir, exist_ok=True)
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            log = trainer.run(cfg.to_run_config(), data,
                              config_snapshot=cfg.snapshot(), checkpoint_dir=out_dir)
            log.save(out_dir)
            run = {"seed": cfg.seed, "cpu_s": time.process_time() - c0,
                   "wall_s": time.perf_counter() - w0,
                   "steps": checks.pretrain_steps(cfg) + checks.adapt_steps(cfg)}
        except Exception as e:  # a failed run is counted, not fatal
            run = {"seed": cfg.seed, "error": f"{type(e).__name__}: {e}",
                   "expected": isinstance(e, trainer.DegenerateStreamError)}
        kernel_s.append(calibrator.kernel_s())
        run["speed"] = NOMINAL_S / (sum(kernel_s[-2:]) / 2)
        runs.append(run)
    peak_rss_mb = proc_status("VmHWM") / 1024.0
    threads = proc_status("Threads")

    for run, (cfg, data) in zip(runs, configs):
        if "error" not in run:
            run["problems"] = checks.check_run(os.path.join(out_root, f"seed{cfg.seed}"),
                                               cfg, data.target_query,
                                               data.target_gallery)
    shutil.rmtree(out_root)
    result = {"setup_s": setup_s, "setup_speed": setup_speed,
              "peak_rss_mb": peak_rss_mb, "threads": threads, "runs": runs}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
