"""Competing-load generators.

A load generator describes, as a piecewise-constant function of virtual
time, how many CPU-bound *competing* tasks are runnable on a processor.
The paper's experiments use a dedicated environment (no load), a constant
load on one processor (Figures 7/8), and an oscillating load with a 20 s
period and 10 s duration (Figure 9); all three are provided, plus step and
composite generators for richer scenarios.
"""

from __future__ import annotations

import json
import math
import os
import time as _time
from bisect import bisect_right
from pathlib import Path
from typing import Any, Sequence

from ..errors import ConfigError

__all__ = [
    "LoadGenerator",
    "LoadTrace",
    "NoLoad",
    "ConstantLoad",
    "OscillatingLoad",
    "StepLoad",
    "CompositeLoad",
]

TRACE_SCHEMA = "repro-loadtrace/1"


def _check_time(value: float, what: str) -> float:
    """Validate one time-like constructor argument (finite, not NaN)."""
    try:
        f = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if math.isnan(f):
        raise ConfigError(f"{what} must not be NaN")
    return f


def _check_count(value: int, what: str) -> int:
    """Validate one competing-task count (finite integer >= 0).

    Floats are accepted only when integral — a NaN/inf count used to
    slip through ``k < 0`` and poison every downstream comparison.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{what} must be finite, got {value!r}")
        if value != int(value):
            raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        k = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc
    if k < 0:
        raise ConfigError(f"{what} must be >= 0, got {k}")
    return k


class LoadGenerator:
    """Interface: piecewise-constant competing-task count over time."""

    def k_at(self, t: float) -> int:
        """Number of competing CPU-bound tasks at time ``t``."""
        raise NotImplementedError

    def next_change(self, t: float) -> float:
        """The first time strictly greater than ``t`` at which ``k_at``
        may change.  Returns ``math.inf`` if the load is constant forever
        after ``t``."""
        raise NotImplementedError

    def segment_start(self, t: float) -> float:
        """Start time of the constant-load segment containing ``t`` (the
        last change at or before ``t``; 0.0 if none).  Used to anchor the
        round-robin scheduling cycle in absolute time."""
        raise NotImplementedError

    def competing_busy_time(self, t0: float, t1: float) -> float:
        """Total time within ``[t0, t1]`` during which at least one
        competing task is runnable (used for CPU accounting)."""
        if t1 < t0:
            raise ConfigError(f"interval reversed: [{t0}, {t1}]")
        busy = 0.0
        t = t0
        while t < t1:
            nxt = min(self.next_change(t), t1)
            if self.k_at(t) >= 1:
                busy += nxt - t
            if nxt <= t:  # pragma: no cover - defensive
                break
            t = nxt
        return busy


class NoLoad(LoadGenerator):
    """A dedicated processor: never any competing task."""

    def k_at(self, t: float) -> int:
        return 0

    def next_change(self, t: float) -> float:
        return math.inf

    def segment_start(self, t: float) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoLoad()"


class ConstantLoad(LoadGenerator):
    """``k`` competing tasks between ``start`` and ``stop``."""

    def __init__(self, k: int = 1, start: float = 0.0, stop: float = math.inf):
        self.k = _check_count(k, "competing task count")
        self.start = _check_time(start, "start")
        # inf is a legal stop (load forever); NaN is not.
        self.stop = _check_time(stop, "stop")
        if not math.isfinite(self.start):
            raise ConfigError(f"start must be finite, got {start}")
        if self.stop < self.start:
            raise ConfigError(f"stop {stop} before start {start}")

    def k_at(self, t: float) -> int:
        return self.k if self.start <= t < self.stop else 0

    def next_change(self, t: float) -> float:
        if t < self.start:
            return self.start
        if t < self.stop:
            return self.stop
        return math.inf

    def segment_start(self, t: float) -> float:
        if t < self.start:
            return 0.0
        if t < self.stop:
            return self.start
        return self.stop if math.isfinite(self.stop) else self.start

    def __repr__(self) -> str:
        return f"ConstantLoad(k={self.k}, start={self.start}, stop={self.stop})"


class OscillatingLoad(LoadGenerator):
    """``k`` competing tasks for ``duration`` out of every ``period`` seconds.

    Matches the Figure 9 experiment: period 20 s, duration 10 s.
    """

    def __init__(
        self,
        k: int = 1,
        period: float = 20.0,
        duration: float = 10.0,
        start: float = 0.0,
    ):
        self.k = _check_count(k, "competing task count")
        self.period = _check_time(period, "period")
        self.duration = _check_time(duration, "duration")
        self.start = _check_time(start, "start")
        if not math.isfinite(self.start):
            raise ConfigError(f"start must be finite, got {start}")
        if (
            not math.isfinite(self.period)
            or self.period <= 0
            or not 0 < self.duration <= self.period
        ):
            raise ConfigError(
                f"need 0 < duration <= period, got duration={duration} period={period}"
            )

    def _segment(self, t: float) -> tuple[bool, float, float]:
        """``(loaded, seg_start, seg_end)`` of the segment holding ``t >= start``.

        Boundaries are the float values ``start + c * period`` and
        ``start + c * period + duration`` (exact on a representable
        grid).  The cycle index is corrected against those values, not
        against ``t - start``, whose rounding can place ``t`` one cycle
        off; so ``seg_start <= t < seg_end`` always holds and k_at,
        next_change and segment_start agree on every segment.
        """
        start, period = self.start, self.period
        cycle = math.floor((t - start) / period)
        on = start + cycle * period
        while t < on:
            cycle -= 1
            on = start + cycle * period
        nxt = start + (cycle + 1) * period
        while t >= nxt:
            cycle += 1
            on, nxt = nxt, start + (cycle + 1) * period
        off = on + self.duration
        if t < off:
            return True, on, min(off, nxt)
        return False, off, nxt

    def k_at(self, t: float) -> int:
        if t < self.start:
            return 0
        return self.k if self._segment(t)[0] else 0

    def next_change(self, t: float) -> float:
        if t < self.start:
            return self.start
        return self._segment(t)[2]

    def segment_start(self, t: float) -> float:
        if t < self.start:
            return 0.0
        return self._segment(t)[1]

    def __repr__(self) -> str:
        return (
            f"OscillatingLoad(k={self.k}, period={self.period}, "
            f"duration={self.duration}, start={self.start})"
        )


class StepLoad(LoadGenerator):
    """Arbitrary piecewise-constant load given as ``[(time, k), ...]``.

    ``k`` holds from each listed time until the next one; before the first
    entry the load is zero.
    """

    def __init__(self, steps: Sequence[tuple[float, int]]):
        if not steps:
            raise ConfigError("StepLoad needs at least one step")
        times = [_check_time(t, "StepLoad time") for t, _ in steps]
        if any(not math.isfinite(t) for t in times):
            raise ConfigError("StepLoad times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("StepLoad times must be strictly increasing")
        self._times = list(times)
        self._ks = [_check_count(k, "StepLoad count") for _, k in steps]

    def k_at(self, t: float) -> int:
        i = bisect_right(self._times, t) - 1
        return self._ks[i] if i >= 0 else 0

    def next_change(self, t: float) -> float:
        i = bisect_right(self._times, t)
        return self._times[i] if i < len(self._times) else math.inf

    def segment_start(self, t: float) -> float:
        i = bisect_right(self._times, t) - 1
        return self._times[i] if i >= 0 else 0.0

    def __repr__(self) -> str:
        return f"StepLoad({list(zip(self._times, self._ks))!r})"


class LoadTrace(StepLoad):
    """A recorded piecewise-constant load, replayed deterministically.

    The trace is a list of ``(time, k)`` samples — the same shape
    :class:`StepLoad` consumes — plus provenance (name, source, free-form
    metadata) and a JSON schema (``repro-loadtrace/1``) so real-machine
    captures can be committed to the repository and replayed bit-exactly
    in benchmarks.  Two capture paths:

    - :meth:`capture` samples another generator at its exact change
      points (lossless: replay is identical to the source generator over
      the captured horizon);
    - :meth:`capture_host` records the local machine's run-queue length
      (``os.getloadavg``) in real time.

    ``clamp=True`` repairs dirty recorded samples (negative or
    non-finite readings become the nearest legal value) instead of
    raising; programmatic constructors get the strict :class:`StepLoad`
    validation.
    """

    def __init__(
        self,
        samples: Sequence[tuple[float, int]],
        *,
        name: str = "trace",
        source: str = "synthetic",
        meta: dict[str, Any] | None = None,
        clamp: bool = False,
    ):
        if clamp:
            samples = self._clamped(samples)
        if not samples:
            samples = [(0.0, 0)]
        super().__init__(samples)
        self.name = str(name)
        self.source = str(source)
        self.meta = dict(meta or {})

    @staticmethod
    def _clamped(samples: Sequence[tuple[float, int]]) -> list[tuple[float, int]]:
        """Repair recorded samples: drop unusable times, clamp counts."""
        out: list[tuple[float, int]] = []
        for t, k in samples:
            tf = float(t)
            if not math.isfinite(tf) or tf < 0:
                continue
            kf = float(k)
            kc = 0 if not math.isfinite(kf) or kf < 0 else int(round(kf))
            if out and tf <= out[-1][0]:
                out[-1] = (out[-1][0], kc)
            else:
                out.append((tf, kc))
        return out

    @property
    def samples(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self._times, self._ks))

    @property
    def horizon(self) -> float:
        """Time of the last recorded sample."""
        return self._times[-1]

    def scaled(self, time_scale: float) -> LoadTrace:
        """A copy with every sample time multiplied by ``time_scale``
        (replay a wall-clock capture on the virtual clock at any tempo)."""
        if not math.isfinite(time_scale) or time_scale <= 0:
            raise ConfigError(f"time_scale must be positive, got {time_scale}")
        return LoadTrace(
            [(t * time_scale, k) for t, k in self.samples],
            name=self.name,
            source=self.source,
            meta={**self.meta, "time_scale": time_scale},
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "source": self.source,
            "samples": [[t, k] for t, k in self.samples],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> LoadTrace:
        if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
            raise ConfigError(
                f"not a load-trace document (want schema {TRACE_SCHEMA!r}, "
                f"got {doc.get('schema') if isinstance(doc, dict) else doc!r})"
            )
        samples = [(float(t), int(k)) for t, k in doc.get("samples", [])]
        return cls(
            samples,
            name=doc.get("name", "trace"),
            source=doc.get("source", "unknown"),
            meta=doc.get("meta") or {},
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> LoadTrace:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read load trace {path}: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def capture(
        cls,
        gen: LoadGenerator,
        horizon: float,
        *,
        t0: float = 0.0,
        name: str = "capture",
    ) -> LoadTrace:
        """Record ``gen`` over ``[t0, t0 + horizon]`` at its exact change
        points, so replaying the trace reproduces the generator."""
        if not math.isfinite(horizon) or horizon <= 0:
            raise ConfigError(f"capture horizon must be positive, got {horizon}")
        samples: list[tuple[float, int]] = [(0.0, gen.k_at(t0))]
        t = t0
        while True:
            t = gen.next_change(t)
            if t >= t0 + horizon or not math.isfinite(t):
                break
            k = gen.k_at(t)
            if k != samples[-1][1]:
                samples.append((t - t0, k))
        return cls(
            samples,
            name=name,
            source=f"capture:{gen!r}",
            meta={"horizon": horizon, "t0": t0},
        )

    @classmethod
    def capture_host(
        cls,
        duration_s: float = 10.0,
        interval_s: float = 0.5,
        *,
        name: str = "host",
    ) -> LoadTrace:
        """Record this machine's 1-minute run-queue length in real time.

        Dirty readings (negative or non-finite, seen on some platforms)
        are clamped rather than fatal — a capture should never crash
        halfway through a recording session.
        """
        if duration_s <= 0 or interval_s <= 0:
            raise ConfigError("capture duration and interval must be positive")
        raw: list[tuple[float, float]] = []
        t_start = _time.monotonic()
        while True:
            elapsed = _time.monotonic() - t_start
            raw.append((elapsed, os.getloadavg()[0]))
            if elapsed >= duration_s:
                break
            _time.sleep(min(interval_s, duration_s - elapsed + 1e-3))
        return cls(
            raw,  # type: ignore[arg-type]  # floats; clamp converts
            name=name,
            source="getloadavg",
            meta={"duration_s": duration_s, "interval_s": interval_s},
            clamp=True,
        )

    def __repr__(self) -> str:
        return (
            f"LoadTrace(name={self.name!r}, source={self.source!r}, "
            f"samples={len(self._times)}, horizon={self.horizon})"
        )


class CompositeLoad(LoadGenerator):
    """Sum of several load generators (independent competing users)."""

    def __init__(self, generators: Sequence[LoadGenerator]):
        if not generators:
            raise ConfigError("CompositeLoad needs at least one generator")
        self._gens = list(generators)

    def k_at(self, t: float) -> int:
        return sum(g.k_at(t) for g in self._gens)

    def next_change(self, t: float) -> float:
        return min(g.next_change(t) for g in self._gens)

    def segment_start(self, t: float) -> float:
        return max(g.segment_start(t) for g in self._gens)

    def __repr__(self) -> str:
        return f"CompositeLoad({self._gens!r})"
