"""Near-neighbour diffusion load balancing (paper Section 6, refs [16][17]).

No central balancer makes *placement* decisions: periodically each slave
exchanges its remaining-work count with its topology neighbours and
shifts iterations toward the lighter side when the imbalance exceeds a
threshold.  Decisions use only local information, so load gradients take
multiple exchange rounds to propagate across the network — the latency
the paper's global-information design avoids.

By default slaves form a chain (the original baseline); passing a
:class:`~repro.config.TopologySpec` (or setting one on the cluster spec)
makes the exchange graph topology-aware — ring, 2-D mesh, fat-tree, or
WAN-linked two-cluster neighbour sets from :mod:`repro.sim.network` —
and prices every message over the topology's routed links.

A passive coordinator only *detects termination* (it counts completed
units and broadcasts a stop notice) and gathers results; it takes no
balancing decisions, preserving the decentralised character.

Supports PARALLEL_MAP plans (independent iterations), as the diffusion
literature assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig, TopologySpec
from ..faults import FaultPlan
from ..obs import Recorder
from ..sim import LoadGenerator, Poll, Recv, Send, Sleep
from ..sim.network import build_topology
from ..strategies.bagplane import (
    BagRun,
    CustodyLedger,
    PlaneResult,
    result_part,
    unit_work,
)

__all__ = ["DiffusionResult", "run_diffusion"]

_LOADINFO = "diff.load"
_WORK = "diff.work"
_PROGRESS = "diff.progress"
_TERM = "diff.term"
_RESULT = "diff.result"


#: Units a slave computes between two neighbour exchanges.
EXCHANGE_EVERY = 2
#: Smallest half-difference of pending units worth shifting to a neighbour.
THRESHOLD = 2


@dataclass(kw_only=True)
class DiffusionResult(PlaneResult):
    """Outcome and metrics of one diffusion run."""

    moves: int
    units_moved: int
    topology: str


def _diff_slave(
    ctx,
    plan: ExecutionPlan,
    exec_num: bool,
    init_units: tuple[int, ...],
    local,
    neighbors: tuple[int, ...],
    stats: dict,
):
    kernels = plan.kernels
    pid = ctx.pid
    pending = sorted(init_units)
    done_units: list[int] = []
    unreported = 0
    counter = 0
    neighbor_load: dict[int, int] = {}
    terminated = False

    def intake():
        """Non-blocking intake of load info, shifted work, termination."""
        nonlocal terminated
        while True:
            msg = yield Poll(tag=_LOADINFO)
            if msg is None:
                break
            neighbor_load[msg.src] = msg.payload
        while True:
            msg = yield Poll(tag=_WORK)
            if msg is None:
                break
            units = list(msg.payload["units"])
            if exec_num and msg.payload.get("data") is not None:
                kernels.unpack_units(local, np.asarray(units), msg.payload["data"], {})
            pending.extend(units)
            pending.sort()
            stats["received"] = stats.get("received", 0) + len(units)
        msg = yield Poll(tag=_TERM)
        if msg is not None:
            terminated = True

    def exchange():
        """Advertise load, report progress, shift work if imbalanced."""
        nonlocal pending, unreported
        for nb in neighbors:
            yield Send(nb, _LOADINFO, len(pending), 16)
        if unreported:
            yield Send(ctx.master_pid, _PROGRESS, unreported, 16)
            unreported = 0
        yield from intake()
        for nb in neighbors:
            their = neighbor_load.get(nb)
            if their is None:
                continue
            excess = (len(pending) - their) // 2
            if excess >= THRESHOLD and excess <= len(pending):
                # Shift contiguous index ranges toward the neighbour:
                # higher-numbered neighbours take the tail, lower ones
                # the head (preserves locality on chains and rings).
                give = pending[-excess:] if nb > pid else pending[:excess]
                pending = pending[:-excess] if nb > pid else pending[excess:]
                payload: dict[str, Any] = {"units": tuple(give)}
                if exec_num:
                    payload["data"] = kernels.pack_units(local, np.asarray(give), {})
                yield Send(nb, _WORK, payload, len(give) * plan.movement.unit_bytes)
                stats["moves"] = stats.get("moves", 0) + 1
                stats["moved_units"] = stats.get("moved_units", 0) + len(give)
                neighbor_load[nb] = their + len(give)

    while not terminated:
        yield from intake()
        if terminated:
            break
        if not pending:
            # Idle: let neighbours see a zero load, then wait for work or
            # the termination notice.
            yield from exchange()
            if not pending and not terminated:
                yield Sleep(0.02)
            continue
        u = pending.pop(0)
        yield unit_work(plan, (u,), local, exec_num)
        done_units.append(u)
        unreported += 1
        counter += 1
        if counter % EXCHANGE_EVERY == 0:
            yield from exchange()

    if unreported:
        yield Send(ctx.master_pid, _PROGRESS, unreported, 16)
    yield Send(ctx.master_pid, _RESULT, *result_part(plan, done_units, local, exec_num))


def _diff_master(ctx, n_slaves: int, total_units: int, ledger: CustodyLedger):
    """Passive coordinator: termination detection + gather only."""
    done = 0
    while done < total_units:
        msg = yield Recv(tag=_PROGRESS)
        done += msg.payload
    for pid in range(n_slaves):
        yield Send(pid, _TERM, None, 16)
    for _ in range(n_slaves):
        msg = yield Recv(tag=_RESULT)
        ledger.gather(msg.payload["units"], msg.payload.get("data"))
    ledger.closed = True


def refuse_faults(faults: FaultPlan) -> str:
    return "it has no fault hooks; run it without --faults"


def run_diffusion(
    plan: ExecutionPlan,
    run_cfg: RunConfig,
    loads: Mapping[int, LoadGenerator] | None = None,
    seed: int = 0,
    topology: TopologySpec | None = None,
    *,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> DiffusionResult:
    """Run ``plan`` under near-neighbour diffusion balancing.

    ``topology`` (or ``run_cfg.cluster.topology``) selects the exchange
    graph and prices messages over the topology's links; with neither,
    slaves form the legacy chain over a crossbar.  The plane has no
    fault hooks: a non-empty ``faults`` plan is rejected.
    """
    bag = BagRun(
        "the diffusion baseline",
        plan,
        run_cfg,
        loads,
        seed=seed,
        recorder=recorder,
        faults=faults,
        refuse=refuse_faults,
        topology=topology,
    )
    n = bag.n
    topo_spec = bag.spec.topology
    if topo_spec is not None:
        topo = build_topology(topo_spec, topo_spec.n_members, bag.spec.network)
        neighbor_map = {pid: topo.neighbors(pid) for pid in range(n)}
    else:  # legacy chain
        neighbor_map = {
            pid: tuple(nb for nb in (pid - 1, pid + 1) if 0 <= nb < n)
            for pid in range(n)
        }
    for pid, units, local in bag.split():
        bag.cluster.spawn(
            pid, _diff_slave, plan, bag.exec_num, units, local,
            neighbor_map[pid], bag.stats,
        )
    bag.cluster.spawn(
        run_cfg.cluster.master_pid, _diff_master, n, bag.total, bag.ledger
    )
    bag.run()
    return bag.result(
        DiffusionResult,
        moves=bag.stats.get("moves", 0),
        units_moved=bag.stats.get("moved_units", 0),
        topology=topo_spec.kind if topo_spec is not None else "chain",
    )
