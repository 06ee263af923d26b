"""Host-speed probe: a fixed kernel timed beside the program's work.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent within minutes, so no raw wall-clock median repeats.  Every
piece of timed work is therefore divided by this probe, run in a quiet
gap next to it, and reported at the host's nominal speed:

    normalized = raw * NOMINAL_PROBE_S / probe_s

The kernel exercises what the program spends its time on: an
interpreter loop, ``ast.parse``/``ast.walk`` of a fixed stdlib source
(``textwrap``; greenlint's work), and numpy over an array larger than
L2 (the simulator's work).  Its inputs are allocated by :class:`Probe` before
``repro`` is imported, and it runs with the garbage collector paused.

Import this module, and construct :class:`Probe`, before ``repro``.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import statistics
import textwrap
import time

import numpy as np

from common import reference

#: Interpreter-loop iterations per probe.
_LOOP_N = 30_000
#: vCPUs probed per sample (the reference host has 2).
_MAX_CPUS = 4
#: 8 MiB of float64: twice the 4 MiB of L2 per core of the reference host.
_ARRAY_LEN = 1 << 20


def nominal_probe() -> dict[str, float]:
    """The probe's wall and CPU time at nominal host speed (seconds)."""
    return reference()["probe"]


class Probe:
    """The probe kernel with its inputs pre-allocated."""

    def __init__(self) -> None:
        with open(textwrap.__file__, encoding="utf-8") as fh:
            self._source = fh.read()
        self._array = np.random.default_rng(2015).random(_ARRAY_LEN)
        # The first run pays one-time costs (code objects, allocator
        # growth) that would make the first sample read a slow host.
        self._kernel()

    def _kernel(self) -> float:
        acc = 0
        for i in range(_LOOP_N):
            acc = (acc * 31 + i) & 0xFFFF
        nodes = sum(1 for _ in ast.walk(ast.parse(self._source)))
        total = 0.0
        for _ in range(2):
            # In place, so the probe allocates nothing; values stay in [0, 1.01).
            np.multiply(self._array, 1.0001, out=self._array)
            np.sqrt(self._array, out=self._array)
            total += float(self._array.sum())
        return acc + nodes + total

    def run(self) -> tuple[float, float]:
        """One probe on the current vCPU: (wall, thread CPU) seconds.

        For single-threaded work: the scheduler keeps the thread where
        the work just ran, so the probe times the vCPU the work used.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            self._kernel()
            return time.perf_counter() - wall0, time.thread_time() - cpu0
        finally:
            if enabled:
                gc.enable()

    def run_each_cpu(self) -> tuple[float, float]:
        """Mean (wall, thread CPU) seconds of a probe pinned to each vCPU.

        For work spread over several processes: a shared host slows its
        vCPUs unevenly, and such work runs on all of them.
        """
        allowed = os.sched_getaffinity(0)
        walls, cpus = [], []
        try:
            for cpu in sorted(allowed)[:_MAX_CPUS]:
                os.sched_setaffinity(0, {cpu})
                wall, cpu_s = self.run()
                walls.append(wall)
                cpus.append(cpu_s)
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(walls) / len(walls), sum(cpus) / len(cpus)


class Speed:
    """Probe samples of one process, with the normalization they imply.

    ``sample()`` runs a probe and records it at the current monotonic
    time; ``scale(t0, t1)`` is the factor that maps raw work done over
    ``[t0, t1]`` to nominal host speed, from the mean of the probes
    nearest before and after the interval.
    """

    def __init__(self, probe: Probe | None, nominal: dict[str, float],
                 samples: list | None = None, each_cpu: bool = False) -> None:
        self.probe = probe
        self.each_cpu = each_cpu
        self.nominal_wall = nominal["wall_s"]
        self.nominal_cpu = nominal["cpu_s"]
        #: (monotonic time at probe end, wall seconds, cpu seconds)
        self.samples: list[tuple[float, float, float]] = list(samples or [])

    def sample(self) -> float:
        """Run one probe; returns its wall time."""
        wall, cpu = (self.probe.run_each_cpu() if self.each_cpu
                     else self.probe.run())
        self.samples.append((time.perf_counter(), wall, cpu))
        return wall

    def _around(self, t0: float, t1: float, idx: int) -> float:
        before = [s[idx] for s in self.samples if s[0] <= t0 + 1e-9]
        after = [s[idx] for s in self.samples if s[0] >= t1 - 1e-9]
        picks = [before[-1]] if before else []
        if after:
            picks.append(after[0])
        if not picks:
            raise RuntimeError("no probe sample around the interval")
        return sum(picks) / len(picks)

    def scale(self, t0: float, t1: float) -> float:
        """Wall-time factor for work done over ``[t0, t1]``."""
        return self.nominal_wall / self._around(t0, t1, 1)

    def cpu_scale(self, t0: float, t1: float) -> float:
        """CPU-time factor for work done over ``[t0, t1]``."""
        return self.nominal_cpu / self._around(t0, t1, 2)

    def series_ms(self) -> list[float]:
        """The raw probe wall times, in ms, in run order."""
        return [round(s[1] * 1e3, 3) for s in self.samples]


def calibrate(n: int = 200) -> dict[str, float]:
    """Median probe wall and CPU time over ``n`` back-to-back probes."""
    probe = Probe()
    runs = [probe.run() for _ in range(n)]
    return {"wall_s": statistics.median(r[0] for r in runs),
            "cpu_s": statistics.median(r[1] for r in runs)}


if __name__ == "__main__":
    print(json.dumps(calibrate()))
