"""The one launcher of the bag-of-units control planes.

A PARALLEL_MAP loop is a bag of independent units.  Four planes
schedule such bags: the rate-filtered sub-master tree (``rate`` is its
flat shape, ``hier`` a fanout-8 tree; :mod:`repro.scale.hierarchy`),
near-neighbour diffusion (:mod:`repro.baselines.diffusion`), work
stealing (:mod:`repro.strategies.stealing`) and robust self-scheduling
(:mod:`repro.strategies.rdlb`).  Each plane keeps only its protocol:
its task functions, its tree or chunk policy, and its counters.  This
module owns every decision they share:

- entry validation (:class:`BagRun`'s constructor): the plan shape,
  dynamic reps, where competing load may sit, and which fault plans the
  plane accepts;
- :func:`unit_work`, the one ``Compute`` of a batch of units over every
  rep;
- run plumbing: the cluster, the global state, the even initial split,
  the run bounded by ``max_virtual_time``, the elapsed time over live
  processors and the merge of the gathered parts;
- :class:`PlaneResult`, the result every plane extends.

The task functions stay in their planes' modules: host-time tracing
assigns a task step to the module of the function it spawned.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Any, TypeVar

import numpy as np

from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import RunConfig, TopologySpec
from ..errors import ConfigError, SimulationError
from ..faults import FaultInjector, FaultPlan
from ..obs import Recorder
from ..runtime.partition import proportional_counts
from ..sim import Cluster, Compute, LoadGenerator
from ..sim.rusage import RusageReport

__all__ = ["BagRun", "PlaneResult", "unit_work"]


@dataclass(kw_only=True)
class PlaneResult:
    """Outcome and metrics of one bag-of-units run.

    ``n_slaves`` is the worker count.  A unit is lost unless its result
    was gathered (``lost_units``), which also covers units a crashed
    worker computed but never handed over.
    """

    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    rusage: RusageReport
    message_count: int
    bytes_sent: int
    completed_units: int
    lost_units: int
    deaths: int
    dead_pids: tuple[int, ...]
    result: Any
    recorder: Recorder | None

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.rusage.efficiency(self.sequential_time, list(range(self.n_slaves)))


R = TypeVar("R", bound=PlaneResult)


def unit_work(
    plan: ExecutionPlan, units: Sequence[int], local: Any, exec_num: bool
) -> Compute:
    """The ``Compute`` of ``units`` over every rep, kernels included.

    All reps of a unit run back to back: PARALLEL_MAP units are
    independent, so collapsing the reps per unit is exact (dynamic-reps
    plans are rejected at entry).  For one unit of a one-rep plan the
    cost is exactly ``plan.unit_cost(0, unit)``.
    """
    ops = sum(plan.units_cost(rep, units) for rep in range(plan.reps))
    if not exec_num or local is None:
        return Compute(ops)
    kernels = plan.kernels
    arr = np.asarray(units)

    def run() -> None:
        for rep in range(plan.reps):
            kernels.run_units(local, rep, arr)

    return Compute(ops, fn=run)


class BagRun:
    """One bag-of-units run, from entry validation to its result.

    The constructor validates the entry and builds the cluster.  The
    plane then spawns its tasks (workers on pids ``0..n-1``, taking
    their share from :meth:`split`; its coordinator stores the gathered
    ``(units, data)`` parts in ``sink["parts"]``), calls :meth:`run`
    and returns :meth:`result`.

    ``plane`` names the plane in error messages.  ``refuse`` is the
    plane's fault-plan check: it returns why the plane cannot run a
    plan, or None (no ``refuse`` accepts every fault kind).
    ``n_sub`` processors (sub-masters) sit between the workers and the
    master, attached to fabric nodes by ``attach``.  ``topology`` (or
    ``run_cfg.cluster.topology``) spans the ``n`` workers unless it
    says otherwise.
    """

    def __init__(
        self,
        plane: str,
        plan: ExecutionPlan,
        run_cfg: RunConfig,
        loads: Mapping[int, LoadGenerator] | None,
        *,
        seed: int,
        recorder: Recorder | None,
        faults: FaultPlan | None,
        refuse: Callable[[FaultPlan], str | None] | None = None,
        n_sub: int = 0,
        attach: dict[int, int] | None = None,
        topology: TopologySpec | None = None,
    ):
        n = run_cfg.cluster.n_slaves
        if plan.shape is not LoopShape.PARALLEL_MAP:
            raise ConfigError(
                f"{plane} supports PARALLEL_MAP plans (independent "
                f"iterations) only; plan {plan.name!r} has shape "
                f"{plan.shape.name}. PIPELINE and REDUCTION_FRONT loops need "
                "the central runtime (repro.runtime.run_application)."
            )
        if plan.dynamic_reps:
            raise ConfigError(
                f"{plane} cannot run dynamic-reps (WHILE) plans: plan "
                f"{plan.name!r} decides its repetition count from a global "
                "convergence test, which needs the central runtime's sweep "
                "barrier."
            )
        loads = dict(loads or {})
        for pid in loads:
            if not 0 <= pid < n:
                raise ConfigError(f"competing load assigned to non-worker pid {pid}")
        topo = topology if topology is not None else run_cfg.cluster.topology
        if topo is not None and topo.n_members is None:
            topo = replace(topo, n_members=n)
        self.spec = replace(run_cfg.cluster, n_slaves=n + n_sub, topology=topo)
        injector = None
        if faults is not None and not faults.empty:
            faults.validate_for(self.spec.n_slaves)
            reason = refuse(faults) if refuse is not None else None
            if reason is not None:
                raise ConfigError(
                    f"{plane} cannot run fault plan "
                    f"{faults.name or 'custom'!r}: {reason}"
                )
            injector = FaultInjector(faults, master_pid=self.spec.master_pid)
        self.cluster = Cluster(
            self.spec, loads, recorder, injector, fabric_attach=attach
        )
        self.plane = plane
        self.plan = plan
        self.run_cfg = run_cfg
        self.recorder = recorder
        self.n = n
        self.exec_num = run_cfg.execute_numerics
        self.global_state = (
            plan.kernels.make_global(np.random.default_rng(seed))
            if self.exec_num
            else None
        )
        lo, hi = plan.unit_space()
        self.total = hi - lo
        self.stats: dict[str, int] = {}
        self.sink: dict[str, Any] = {}

    def split(self) -> Iterator[tuple[int, tuple[int, ...], Any]]:
        """The even initial split: ``(worker pid, units, local state)``."""
        lo, hi = self.plan.unit_space()
        counts = proportional_counts(hi - lo, [1.0] * self.n, minimum=1)
        kernels = self.plan.kernels
        start = lo
        for pid, count in enumerate(counts):
            units = tuple(range(start, start + count))
            start += count
            local = (
                kernels.make_local(self.global_state, np.asarray(units))
                if self.exec_num
                else None
            )
            yield pid, units, local

    def run(self) -> None:
        """Run the spawned tasks, bounded by ``run_cfg.max_virtual_time``.

        A run whose coordinator never gathered raises
        :class:`SimulationError` (or the simulator's deadlock
        diagnostics).
        """
        cluster = self.cluster
        cluster.run(until=self.run_cfg.max_virtual_time)
        if "parts" in self.sink:
            return
        if cluster.engine.pending():
            raise SimulationError(
                f"{self.plane} run exceeded max_virtual_time="
                f"{self.run_cfg.max_virtual_time}"
            )
        cluster.run()  # surfaces DeadlockError diagnostics
        raise SimulationError(f"{self.plane} coordinator never gathered results")

    def result(self, cls: type[R], **counters: Any) -> R:
        """The plane's result after :meth:`run`; ``counters`` are the
        plane's own fields."""
        cluster = self.cluster
        elapsed = max(
            cluster.task_finish_time(pid)
            for pid in range(self.spec.n_processors)
            if pid not in cluster.dead_pids
        )
        parts = self.sink["parts"]
        completed = sum(len(units) for units, _ in parts)
        result = None
        if self.exec_num:
            # Gathered parts hold disjoint units, so merge_results can
            # take them in any order and at any granularity.
            merged = {
                i: (np.asarray(units), data)
                for i, (units, data) in enumerate(parts)
                if data is not None and len(units)
            }
            if merged:
                result = self.plan.kernels.merge_results(self.global_state, merged)
        return cls(
            name=self.plan.name,
            n_slaves=self.n,
            elapsed=elapsed,
            sequential_time=self.plan.total_ops() / self.spec.processor.speed,
            rusage=cluster.rusage(elapsed),
            message_count=cluster.message_count,
            bytes_sent=cluster.bytes_sent,
            completed_units=completed,
            lost_units=self.total - completed,
            deaths=self.stats.get("deaths", 0),
            dead_pids=tuple(sorted(cluster.dead_pids)),
            result=result,
            recorder=self.recorder,
            **counters,
        )
