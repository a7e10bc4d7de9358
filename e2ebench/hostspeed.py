"""Host-speed probe: a fixed piece of work that uses no code of the program.

The benchmark's host is a few cores of a shared machine whose speed
swings by up to ~1.7x within seconds and drifts over minutes (other
tenants, frequency and cache contention), far more than the bounds the
benchmark gates on, and the program's runs slow down with it.
:class:`HostSpeed` times this probe before the first run and after
every run; :meth:`HostSpeed.factors` gives, for each run, how much
slower than nominal the host ran around it, and the benchmark divides
the run's host time by it.

The probe has two parts, because the program's layers lean on the host
differently:

- ``interp``: a pure-Python integer loop (interpreter dispatch);
- ``memory``: dict lookups, attribute updates and ``heapq`` pushes over
  a few MB of small objects in a fixed random order (the simulator's
  pattern on a working set larger than the caches).

A numpy part was tried and dropped: on the simulator-bound workloads it
made the corrected times noisier, and on the kernel-bound one it gained
little.  Each part is timed with the garbage collector off, so the
program's heap does not leak into the probe.  The probe is the same on
every commit, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
import time
from typing import Callable

__all__ = ["NOMINAL_S", "HostSpeed"]

#: Time of each part on the nominal host (its median on a 2-core x86
#: development host).  Host times divided by the factors are seconds on
#: that host.
NOMINAL_S = {"interp": 0.005, "memory": 0.007}


class _Obj:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0.0


class HostSpeed:
    """Times the probe on demand and turns the samples into factors."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._objs = {i: _Obj(i) for i in range(40_000)}
        self._order = [rng.randrange(40_000) for _ in range(8_000)]
        self._parts: dict[str, Callable[[], object]] = {
            "interp": self._interp,
            "memory": self._memory,
        }
        self.samples: dict[str, list[float]] = {part: [] for part in self._parts}

    @staticmethod
    def _interp() -> int:
        s = 0
        for i in range(100_000):
            s += i & 7
        return s

    def _memory(self) -> int:
        objs, heap = self._objs, []
        for n, key in enumerate(self._order):
            obj = objs[key]
            obj.hits += 1.0
            heapq.heappush(heap, (obj.key, n))
            if len(heap) > 64:
                heapq.heappop(heap)
        return len(heap)

    def sample(self) -> None:
        """Time every part once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for part, fn in self._parts.items():
                t0 = time.perf_counter()
                fn()
                self.samples[part].append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _slowdown(self, part_times: dict[str, float]) -> float:
        ratios = [t / NOMINAL_S[part] for part, t in part_times.items()]
        return math.prod(ratios) ** (1.0 / len(ratios))

    def factors(self) -> list[float]:
        """One factor per interval between consecutive samples.

        Each is the geometric mean over the parts of the mean of the two
        bracketing samples over nominal; above 1 the host ran slower than
        nominal.  Sampling before the first run and after every run gives
        one factor per run.
        """
        n = len(self.samples["interp"])
        return [
            self._slowdown(
                {part: (t[i] + t[i + 1]) / 2 for part, t in self.samples.items()}
            )
            for i in range(n - 1)
        ]

    def factor(self) -> float:
        """The factor of the median sample of every part."""
        return self._slowdown({part: statistics.median(t) for part, t in self.samples.items()})
