"""Timing on a shared host whose CPUs are sometimes contended.

On a shared VM each vCPU can alternate, for a fraction of a second to
several seconds at a time, between full speed and a contended speed far
below it (on a shared 2-vCPU Xeon VM a fixed kernel took 0.67 ms or
1.1-1.4 ms, with nothing in between, CPU/wall at 1.00 and no steal time;
the two vCPUs switch independently).  A clip's wall time then says more
about the neighbours than about the program.

`Host` times a small fixed calibration kernel, which does not use dahyf, on
each CPU the process may use, pins the calling thread to the fastest, and
times the kernel again after the clip.  `host_adjusted` scales each clip's
wall time by `K_REF_MS` over the mean of those two kernel times: the clip's
time on a host where the kernel takes `K_REF_MS`, which is what it takes on
a free CPU of the VM above.  Contention slows the kernel and the clip alike,
so the adjusted times hold still while the raw ones swing; a change to
dahyf moves the clip and not the kernel, so it shows in full.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

K_REF_MS = 0.70

_RNG = np.random.default_rng(0)
_ROT = _RNG.normal(size=(16, 3, 3))
_PTS = _RNG.normal(size=(21, 3))
_DOC = {"index": list(range(30)), "joints2d": [[1.5, 2.5]] * 21, "name": "x" * 50}


def _kernel() -> float:
    """Small matrix products and JSON round trips, like a pipeline frame."""
    acc = 0.0
    for i in range(20):
        acc += float(np.linalg.norm(_PTS @ (_ROT[i % 16] @ _ROT[(i + 1) % 16])))
        acc += len(json.loads(json.dumps(_DOC)))
    return acc


def kernel_ms() -> float:
    """Best of two timings of the calibration kernel, in ms."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class Host:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def settle(self) -> float:
        """Pin the calling thread to the CPU that runs the kernel fastest
        now; return that kernel time."""
        best_cpu, best_ms = self.cpus[0], float("inf")
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            ms = kernel_ms()
            if ms < best_ms:
                best_cpu, best_ms = cpu, ms
        os.sched_setaffinity(0, {best_cpu})
        return best_ms

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def host_adjusted(wall_ms, before_ms, after_ms) -> np.ndarray:
    """Wall times scaled to a host on which the kernel takes K_REF_MS."""
    kernel = (np.asarray(before_ms) + np.asarray(after_ms)) / 2.0
    return np.asarray(wall_ms) * K_REF_MS / kernel
