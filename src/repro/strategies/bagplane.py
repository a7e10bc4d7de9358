"""The one launcher and the one crash-recovery path of the bag planes.

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
  rep, and :func:`result_part`, the one result a worker hands over;
- run plumbing: the cluster, the global state, the even initial split,
  the run bounded by ``max_virtual_time``, the elapsed time over live
  processors and the merge of the gathered parts;
- custody: the :class:`CustodyLedger` keeps the first gathered result of
  each unit, and on a crash notice (:meth:`BagRun.notices`; no plane
  times out silence) the one re-issue rule (:meth:`BagRun.recover`)
  hands the un-gathered units to live workers;
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
from ..sim import Cluster, Compute, LoadGenerator, Recv, Send, Sleep
from ..sim.rusage import RusageReport

__all__ = [
    "BagRun",
    "CustodyLedger",
    "PlaneResult",
    "result_part",
    "serve_reissues",
    "unit_work",
]


@dataclass(kw_only=True)
class PlaneResult:
    """Outcome and metrics of one bag-of-units run.

    ``n_slaves`` is the worker count.  A unit is lost unless its result
    was gathered (``lost_units``), which also covers units a crashed
    worker computed but never handed over.  ``deaths`` counts crashed
    processes: each one reaches the plane as a crash notice.
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


def result_part(
    plan: ExecutionPlan, units: Sequence[int], local: Any, exec_num: bool
) -> tuple[dict[str, Any], int]:
    """A worker's result message: ``(payload, nbytes)`` for ``units``
    computed in ``local``."""
    payload: dict[str, Any] = {"units": tuple(units)}
    if not exec_num:
        return payload, 64
    payload["data"] = plan.kernels.local_result(local)
    return payload, plan.kernels.result_bytes(len(units))


def serve_reissues(
    plan: ExecutionPlan,
    exec_num: bool,
    coord: int,
    batch_tag: str,
    result_tag: str,
    release_tag: str,
) -> Iterator[Any]:
    """A held worker's last phase: compute each batch of re-issued units
    the coordinator sends (one unit at a time, exactly as in a fault-free
    run) and send its result back, until the coordinator releases it."""
    while True:
        msg = yield Recv(src=coord)
        if msg.tag == release_tag:
            return
        if msg.tag == batch_tag:
            units, batch = msg.payload["units"], msg.payload.get("data")
            for u in units:
                yield unit_work(plan, (u,), batch, exec_num)
            yield Send(coord, result_tag, *result_part(plan, units, batch, exec_num))


class CustodyLedger:
    """Which units' results a coordinator has gathered.

    :meth:`gather` keeps the first result of each unit; a part that
    repeats a unit is cut down to its new units (``merge_results`` reads
    ``data[units]``) and counted in ``duplicates``.  The coordinator
    sets ``closed`` when it has finished.
    """

    def __init__(self, units: range):
        self._missing = set(units)
        self.parts: list[tuple[tuple[int, ...], Any]] = []
        self.duplicates = 0
        self.closed = False

    @property
    def complete(self) -> bool:
        return not self._missing

    def gather(self, units: Sequence[int], data: Any) -> bool:
        """Record one gathered part; False when it held no new unit."""
        new = tuple(u for u in units if u in self._missing)
        if len(new) < len(units):
            self.duplicates += 1
        if not new:
            return False
        self._missing.difference_update(new)
        self.parts.append((new, data))
        return True

    def missing(self) -> tuple[int, ...]:
        return tuple(sorted(self._missing))


class BagRun:
    """One bag-of-units run, from entry validation to its result.

    The constructor validates the entry and builds the cluster.  The
    plane then spawns its tasks (workers on pids ``0..n-1``, taking
    their share from :meth:`split`; its coordinator gathers the
    workers' ``(units, data)`` parts into ``ledger`` and closes it),
    calls :meth:`run` and returns :meth:`result`.

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
        self.ledger = CustodyLedger(range(lo, hi))

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

    def batch(self, units: tuple[int, ...]) -> tuple[dict[str, Any], int]:
        """Units handed to a worker with their input made from the global
        state: ``(payload, nbytes)``."""
        payload: dict[str, Any] = {"units": units}
        if not self.exec_num:
            return payload, len(units) * self.plan.movement.unit_bytes
        kernels = self.plan.kernels
        payload["data"] = kernels.make_local(self.global_state, np.asarray(units))
        return payload, kernels.input_bytes(len(units))

    def notices(self, ctx: Any, dead: set[int], plane: str | None) -> list[int]:
        """New crash notices: dead pids not yet in ``dead`` (which holds
        only dead pids), added to it and to ``plane``'s obs counters."""
        cluster = self.cluster
        if cluster.n_dead == len(dead):
            return []
        fresh = sorted(cluster.dead_pids - dead)
        dead.update(fresh)
        obs = ctx.obs
        if plane is not None and obs.enabled:
            for pid in fresh:
                obs.metrics.counter(f"{plane}.deaths").inc()
                obs.emit_counter(
                    plane, "death", ctx.now, 1.0, pid=ctx.pid, meta={"dead": pid}
                )
        return fresh

    def recover(
        self,
        ctx: Any,
        dead: set[int],
        waiting: set[int],
        poll: Any,
        reissue: Callable[[int, dict[str, Any], int], Any] | None,
        *,
        plane: str,
        tick: float,
        give_up: float,
    ) -> Iterator[Any]:
        """Gather results into the ledger, re-issuing what crashes lost.

        Polls ``poll`` until every pid in ``waiting`` has answered or
        died, or ``give_up`` seconds pass.  Then, given ``reissue`` (the
        plane's send of a batch), the missing units go to the live
        workers and are gathered the same way, round after round.  What
        no worker is left to take, the coordinator computes itself.
        """
        ledger = self.ledger
        while True:
            start = ctx.now
            waiting -= dead
            while waiting:
                msg = yield poll
                now = ctx.now
                if msg is not None:
                    ledger.gather(msg.payload["units"], msg.payload.get("data"))
                    waiting.discard(msg.src)
                    continue
                waiting.difference_update(self.notices(ctx, dead, plane))
                if now - start > give_up:
                    break
                yield Sleep(tick)
            # The re-issue rule: deal the missing units out to the live
            # workers; the first result of each unit wins.
            missing = ledger.missing()
            live = [pid for pid in range(self.n) if pid not in dead]
            if reissue is None or waiting or not missing or not live:
                break
            for i, pid in enumerate(live[: len(missing)]):
                yield reissue(pid, *self.batch(missing[i :: len(live)]))
                waiting.add(pid)
        if missing:
            local = self.batch(missing)[0].get("data")
            for u in missing:
                yield unit_work(self.plan, (u,), local, self.exec_num)
            part = result_part(self.plan, missing, local, self.exec_num)[0]
            ledger.gather(missing, part.get("data"))

    def run(self) -> None:
        """Run the spawned tasks, bounded by ``run_cfg.max_virtual_time``.

        A run whose coordinator never gathered raises
        :class:`SimulationError` (or the simulator's deadlock
        diagnostics).
        """
        cluster = self.cluster
        cluster.run(until=self.run_cfg.max_virtual_time)
        if self.ledger.closed:
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
        ledger = self.ledger
        result = None
        if self.exec_num:
            # Gathered parts hold disjoint units, so merge_results can
            # take them in any order and at any granularity.
            merged = {
                i: (np.asarray(units), data)
                for i, (units, data) in enumerate(ledger.parts)
                if data is not None
            }
            if merged:
                result = self.plan.kernels.merge_results(self.global_state, merged)
        lost = len(ledger.missing())
        return cls(
            name=self.plan.name,
            n_slaves=self.n,
            elapsed=elapsed,
            sequential_time=self.plan.total_ops() / self.spec.processor.speed,
            rusage=cluster.rusage(elapsed),
            message_count=cluster.message_count,
            bytes_sent=cluster.bytes_sent,
            completed_units=self.total - lost,
            lost_units=lost,
            deaths=cluster.n_dead,
            dead_pids=tuple(sorted(cluster.dead_pids)),
            result=result,
            recorder=self.recorder,
            **counters,
        )
