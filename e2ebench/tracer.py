"""Outside-in host-time tracing of whole runs.

The tracer records spans from outside the program: it wraps the task
functions handed to the public :meth:`repro.sim.Cluster.spawn` in a
timing generator proxy and wraps a few public functions and methods at
layer boundaries.  It never patches a private name, and the wrapped
program yields exactly the same syscalls in the same order, so traced
runs reproduce untraced simulated outcomes.

A layer's self time is its spans' duration minus the part covered by
child spans (spans opened while it is open).  Spans:

- ``sim``: :meth:`Cluster.run`; its children are the task steps, so its
  self time is the engine, machine, processor and network work
  (including network pricing and ``fastcopy``, which the engine reaches
  through module-level references the tracer cannot see).
- one span per task step (one ``send`` into a task generator), named by
  the task function's module: ``runtime.master``, ``runtime.slave``,
  ``scale``, ``baselines`` or ``strategies``;
- ``runtime.balancer``: :func:`repro.runtime.balancer.decide`;
- ``runtime.partition``: ``transfers_toward``, ``apply`` and ``counts``
  of both partition classes;
- ``apps``: every public method of a plan's ``kernels`` object
  (:meth:`Tracer.wrap_kernels`);
- ``compiler``: the app and bag builders, timed by the caller with
  :meth:`Tracer.span`.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.runtime.balancer as balancer_mod
import repro.runtime.master as master_mod
from repro.compiler.plan import AppKernels
from repro.runtime.partition import BlockPartition, IndexPartition
from repro.sim import Cluster, Poll

__all__ = ["Tracer", "task_layer"]

_PARTITION_METHODS = ("transfers_toward", "apply", "counts")
_KERNEL_METHODS = tuple(
    name
    for name, value in vars(AppKernels).items()
    if not name.startswith("_") and callable(value)
)


def task_layer(fn: Callable[..., Any]) -> str:
    """Layer a task function belongs to, from its module name."""
    parts = getattr(fn, "__module__", "").split(".")
    if parts[:2] == ["repro", "runtime"] and len(parts) > 2:
        return f"runtime.{parts[2]}"
    return parts[1] if len(parts) > 1 else "other"


class Tracer:
    """Span and counter sink for one traced stretch of runs."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.syscalls: Counter[str] = Counter()
        self.poll_hits = 0
        self.events = 0
        self._stack: list[float] = []

    # ---- spans -------------------------------------------------------

    def span(self, layer: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        """Call ``fn`` inside a span of ``layer``."""
        stack = self._stack
        t0 = time.perf_counter()
        stack.append(0.0)
        try:
            return fn(*args, **kw)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[layer] += dt - stack.pop()
            self.total_s[layer] += dt
            self.calls[layer] += 1
            if stack:
                stack[-1] += dt

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kw: Any) -> Any:
            return self.span(layer, fn, *args, **kw)

        return traced

    def wrap_kernels(self, plan: Any) -> Any:
        """Wrap the public methods of ``plan.kernels`` in ``apps`` spans.

        Wraps the instance, so only runs of this plan object are traced.
        """
        kernels = plan.kernels
        if kernels is not None:
            for name in _KERNEL_METHODS:
                setattr(kernels, name, self.wrap("apps", getattr(kernels, name)))
        return plan

    # ---- task steps --------------------------------------------------

    def task(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Task function whose generator runs behind a timing proxy."""
        layer = task_layer(fn)

        @functools.wraps(fn)
        def traced(ctx: Any, *args: Any, **kw: Any) -> Any:
            return self._proxy(fn(ctx, *args, **kw), layer)

        return traced

    def _proxy(self, gen: Any, layer: str) -> Any:
        stack = self._stack
        syscalls = self.syscalls
        clock = time.perf_counter
        value = None
        try:
            while True:
                t0 = clock()
                stack.append(0.0)
                try:
                    req = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = clock() - t0
                    self.self_s[layer] += dt - stack.pop()
                    self.total_s[layer] += dt
                    self.calls[layer] += 1
                    if stack:
                        stack[-1] += dt
                syscalls[req.__class__.__name__] += 1
                value = yield req
                if value is not None and req.__class__ is Poll:
                    self.poll_hits += 1
        finally:
            gen.close()

    # ---- installation ------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the public boundaries for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, name: str, new: Any) -> None:
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, new)

        orig_spawn = Cluster.spawn
        orig_run = Cluster.run
        tracer = self

        def spawn(cluster: Cluster, pid: int, fn: Any, *args: Any, **kw: Any) -> Any:
            return orig_spawn(cluster, pid, tracer.task(fn), *args, **kw)

        def run(cluster: Cluster, until: float = math.inf) -> float:
            before = cluster.engine.events_processed
            try:
                return tracer.span("sim", orig_run, cluster, until)
            finally:
                tracer.events += cluster.engine.events_processed - before

        try:
            patch(Cluster, "spawn", spawn)
            patch(Cluster, "run", run)
            decide = self.wrap("runtime.balancer", balancer_mod.decide)
            patch(balancer_mod, "decide", decide)
            patch(master_mod, "decide", decide)
            for cls in (BlockPartition, IndexPartition):
                for name in _PARTITION_METHODS:
                    patch(cls, name, self.wrap("runtime.partition", getattr(cls, name)))
            yield self
        finally:
            for owner, name, old in reversed(saved):
                setattr(owner, name, old)
