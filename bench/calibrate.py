"""A fixed reference kernel that measures how fast the machine runs now.

On a shared machine the CPU time of a fixed piece of work drifts with the
load of other tenants: on the 2-core machine in README.md the same run
took from 1.0 s to 2.0 s of process CPU within twenty minutes. round.py
times the kernel right before and right after each timed phase, and
run.py scales the phase's CPU time by NOMINAL_S / (the mean of the two
readings). The kernel mixes the two kinds of work a training step does,
interpreter work and NumPy calls on small matrices, because those
tracked the sweeps' drift best; a dense 1,200 x 1,200 kernel tracked
them worst and would raise the peak RSS. It uses NumPy only, never
streamreid, so a change to the program cannot move it, and its arrays
are a few kilobytes, so it never sets the peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1     # about the kernel's CPU time on the README's machine, quiet


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((16, 64))
        self.w2 = rng.standard_normal((64, 32))
        self.x = rng.standard_normal((480, 16))
        self.batches = rng.integers(0, 480, size=(500, 32))
        self.kernel_s()     # the first pass pays for first calls; discard it

    def kernel_s(self) -> float:
        """CPU seconds one pass of the kernel takes now."""
        t0 = time.process_time()
        total, table = 0, {}
        for i in range(400_000):
            total += i * i
            table[i & 1023] = total
        acc = 0.0
        for idx in self.batches:
            h = np.tanh(self.x[idx] @ self.w1) @ self.w2
            u = h / np.linalg.norm(h, axis=1, keepdims=True)
            s = u @ u.T
            acc += float(np.exp(s - s.max(axis=1, keepdims=True)).sum())
        if not np.isfinite(acc) or len(table) != 1024:
            raise RuntimeError("calibration kernel went wrong")
        return time.process_time() - t0
