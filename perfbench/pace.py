"""Pace probe: how fast the benchmark's CPU runs while the program runs on it.

The reference machine is a share of a host whose speed drifts by tens of
percent, per vCPU, in phases from seconds to minutes long.  CPU time drifts
with it.  So while a run measures, this script runs beside the program on
the same vCPU, at the lowest priority (nice 19, about 1.5 % of the CPU), and
times a fixed pure-Python kernel over and over.  The scheduler interleaves
the two many times a second, so each kernel sample meets the same host as
the program's operations around it.  The kernel imports nothing from
ospchar, so no change to the program moves it.

The benchmark starts it with ``Pace``; it prints one line per sample,
``<wall start> <wall end> <cpu seconds>``, until it is terminated or its
parent ends.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from operator import add
from pathlib import Path

# Mean CPU time of one ``kernel()`` sample on the reference machine (Intel
# Xeon, 2 vCPUs of a shared host, Python 3.11.7) beside a running workload.
NOMINAL_S = 0.0050
# Fewest samples a factor is taken from.
MIN_SAMPLES = 5


def _poly(seed: int, terms: int) -> dict[tuple[int, ...], int]:
    out, x = {}, seed
    for _ in range(terms):
        x = (x * 1103515245 + 12345) % 2**31
        out[(x % 7 - 3, x // 7 % 7 - 3, x // 49 % 5, x // 245 % 5)] = x % 2**20 - 2**19
    return out


_A, _B = _poly(1, 64), _poly(2, 60)


def kernel() -> int:
    """Multiply two fixed sparse polynomials, as a dict-based product does."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for e2, c2 in _B.items():
        for e1, c1 in _A.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return len(out) + sum(out.values()) % 1000003


class Pace:
    """The probe process, started on entry and terminated and reaped on exit.

    Pins the calling process to one CPU first, so that the probe, which
    inherits the pin, shares it; the pin is lifted again on exit.  The
    probe writes its samples to ``log``, a file, so that a long run cannot
    fill a pipe and stall it; the file is removed on exit.
    """

    def __init__(self, log: Path):
        self.samples: list[tuple[float, float, float]] = []
        self._log = log
        self._proc: subprocess.Popen | None = None
        self._cpus = os.sched_getaffinity(0)

    def __enter__(self) -> "Pace":
        os.sched_setaffinity(0, {max(self._cpus)})
        self._log.parent.mkdir(parents=True, exist_ok=True)
        with open(self._log, "w") as out:
            self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())], stdout=out)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        os.sched_setaffinity(0, self._cpus)
        for line in self._log.read_text().splitlines():
            fields = line.split()
            if len(fields) == 3:  # the last line may be cut by the termination
                self.samples.append(tuple(float(f) for f in fields))
        self._log.unlink()

    def factor(self, start: float, end: float, around: float = 0.0) -> float | None:
        """Host slowness over [start - around, end + around] of ``time.time()``.

        The mean CPU time of the samples centred in that span, over
        NOMINAL_S; None when fewer than MIN_SAMPLES fall in it.  The mean,
        not the median: the samples fall into a fast and a slow band as the
        host switches phase, and a median jumps between the bands where a
        mean follows the share of time spent in each.
        """
        inside = [cpu for s, e, cpu in self.samples if start - around <= (s + e) / 2 <= end + around]
        if len(inside) < MIN_SAMPLES:
            return None
        return statistics.fmean(inside) / NOMINAL_S


def main() -> None:
    os.nice(19)
    parent = os.getppid()
    while os.getppid() == parent:  # a benchmark killed outright cannot stop its probe
        w0, c0 = time.time(), time.process_time()
        kernel()
        print(f"{w0:.6f} {time.time():.6f} {time.process_time() - c0:.9f}", flush=True)


if __name__ == "__main__":
    main()
