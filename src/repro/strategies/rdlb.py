"""Central-queue self-scheduling, hardened the way rDLB hardens it.

This is the repository's one self-scheduling plane (paper Section 6,
refs [7]-[10]): a master keeps the loop iterations in a central queue
and idle workers request the next chunk.  Chunking policies:

- :class:`ChunkPolicy` — fixed-size chunks (chunk self-scheduling).
- :class:`GuidedPolicy` — guided self-scheduling, chunk = ceil(R / P)
  (Polychronopoulos & Kuck).
- :class:`FactoringPolicy` — batches of P equal chunks, each batch half
  the remaining work (Hummel, Schonberg & Flynn).
- :class:`TrapezoidPolicy` — linearly decreasing chunk sizes from
  ``first`` to ``last`` (Tzen & Ni).

rDLB (Mohammed, Cavelan & Ciorba) hardens it by reissuing work rather
than by detecting slowness: the master never blocks, and when the queue
runs dry while chunks are still outstanding it *reissues* the oldest
outstanding chunk to the next idle requester (bounded duplication,
first result wins).
No rate filtering, no trend estimation, no movement decisions — a
slowed worker's chunk is simply finished by someone else.  With
``dup_max=1`` (the classic chunkings in the strategy registry) a chunk
is reissued only when its holder has crashed.

Crashes are learned from crash notices
(:meth:`~repro.strategies.bagplane.BagRun.notices`): the simulator's
form of a host-failure notice (a closed connection, PVM's
``pvm_notify``), the same accurate failure detector the protocol model
assumes.  A worker that is merely slow is never declared dead, however
long its chunk runs.  The first result of each unit wins, and later
copies are counted as duplicates (the custody ledger of
:mod:`repro.strategies.bagplane`).

The cost is the self-scheduling cost the paper's iteration-ownership
design avoids — every chunk ships its input data from the master and
returns its results — plus the duplicated compute of reassigned chunks.
The perturbation-robustness bench makes both visible.

Supports PARALLEL_MAP plans (independent iterations) only, and fault
plans made of crashes and stalls (see :func:`run_rdlb`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..errors import ConfigError, ProtocolError
from ..faults import FaultPlan
from ..obs import Recorder
from ..sim import LoadGenerator, Poll, Recv, Send, Sleep
from .bagplane import BagRun, PlaneResult, unit_work
from .protocol import RobustTags

# Module-level alias named `Tags` for the protocol lint's AST resolver.
Tags = RobustTags

__all__ = [
    "ChunkPolicy",
    "FactoringPolicy",
    "GuidedPolicy",
    "RdlbConfig",
    "RdlbResult",
    "TrapezoidPolicy",
    "run_rdlb",
]

_CHUNKINGS = ("fsc", "gss", "factoring", "trapezoid")


@dataclass(frozen=True)
class RdlbConfig:
    """Parameters of the robust self-scheduling plane.

    Attributes:
        chunking: chunk-sizing policy — ``"fsc"`` (fixed-size),
            ``"gss"`` (guided), ``"factoring"``, or ``"trapezoid"``
            (the policy classes below).
        chunk: fixed chunk size when ``chunking="fsc"``.
        dup_max: maximum concurrent assignees per chunk (2 = one
            reissue); bounds the duplicated compute.
        reassign_after: how long a chunk may be outstanding before an
            idle requester gets a copy even though its holder is alive
            (perturbation robustness: hedges a chunk stranded on a
            worker slowed by competing load).
        retry_wait: how long a worker with nothing to do waits before
            re-requesting.  Workers are never parked inside the master —
            an idle worker keeps polling.
        tick: master poll-loop sleep between empty polls.
    """

    chunking: str = "factoring"
    chunk: int = 8
    dup_max: int = 2
    reassign_after: float = 2.0
    retry_wait: float = 0.2
    tick: float = 0.02

    def __post_init__(self) -> None:
        if self.chunking not in _CHUNKINGS:
            raise ConfigError(
                f"chunking must be one of {', '.join(_CHUNKINGS)}, "
                f"got {self.chunking!r}"
            )
        if self.chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {self.chunk}")
        if self.dup_max < 1:
            raise ConfigError(f"dup_max must be >= 1, got {self.dup_max}")
        if self.reassign_after <= 0 or self.retry_wait <= 0 or self.tick <= 0:
            raise ConfigError("reassign_after, retry_wait and tick must be positive")


@dataclass(kw_only=True)
class RdlbResult(PlaneResult):
    """Outcome and metrics of one robust self-scheduling run."""

    chunking: str
    chunks_served: int
    reassigns: int
    duplicate_results: int

    def summary(self) -> str:
        lost = f" lost={self.lost_units}" if self.lost_units else ""
        return (
            f"{self.name}: P={self.n_slaves} ({self.chunking}) "
            f"elapsed={self.elapsed:.2f}s speedup={self.speedup:.2f} "
            f"chunks={self.chunks_served} reassigns={self.reassigns} "
            f"deaths={self.deaths}{lost} msgs={self.message_count}"
        )


class ChunkPolicy:
    """Fixed-size chunking (CSS)."""

    def __init__(self, chunk: int = 1):
        if chunk < 1:
            raise ProtocolError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        return min(self.chunk, remaining)


class GuidedPolicy:
    """Guided self-scheduling (GSS): chunk = ceil(remaining / P)."""

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        return max(1, math.ceil(remaining / n_slaves))


class FactoringPolicy:
    """Factoring: allocate batches of P chunks, each batch covering half
    the remaining iterations."""

    def __init__(self) -> None:
        self._batch_left = 0
        self._batch_chunk = 1

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        if self._batch_left <= 0:
            self._batch_chunk = max(1, math.ceil(remaining / (2 * n_slaves)))
            self._batch_left = n_slaves
        self._batch_left -= 1
        return min(self._batch_chunk, remaining)


class TrapezoidPolicy:
    """Trapezoid self-scheduling (TSS): chunks decrease linearly."""

    def __init__(self, total: int, n_slaves: int, last: int = 1):
        first = max(1, total // (2 * n_slaves))
        n_steps = max(1, math.ceil(2 * total / (first + last)))
        self._chunk = float(first)
        self._delta = (first - last) / max(1, n_steps - 1)
        self._last = last

    def next_chunk(self, remaining: int, n_slaves: int) -> int:
        c = max(self._last, int(round(self._chunk)))
        self._chunk = max(float(self._last), self._chunk - self._delta)
        return min(max(1, c), remaining)


def _make_policy(rc: RdlbConfig, total: int, n_slaves: int):
    if rc.chunking == "fsc":
        return ChunkPolicy(rc.chunk)
    if rc.chunking == "gss":
        return GuidedPolicy()
    if rc.chunking == "trapezoid":
        return TrapezoidPolicy(total, n_slaves)
    return FactoringPolicy()


class _Chunk:
    """Master-side state of one outstanding chunk."""

    __slots__ = ("units", "assignees", "issued_at")

    def __init__(self, units: tuple[int, ...], pid: int, now: float):
        self.units = units
        self.assignees = {pid}
        self.issued_at = now


def _rdlb_worker(ctx, plan: ExecutionPlan, rc: RdlbConfig, exec_num: bool):
    kernels = plan.kernels
    master = ctx.master_pid
    report: dict[str, Any] | None = None
    while True:
        yield Send(master, Tags.REQUEST, report, 32)
        msg = yield Recv(src=master, tag=Tags.WORK)
        report = None
        units = msg.payload["units"]
        if not units:
            if msg.payload.get("retry"):
                # Nothing to hand out right now; keep polling.
                yield Sleep(rc.retry_wait)
                continue
            return
        local = msg.payload.get("data")
        yield unit_work(plan, units, local, exec_num)
        report = {"chunk": msg.payload["chunk"], "units": units}
        if exec_num and local is not None:
            report["data"] = kernels.local_result(local)


def _rdlb_master(ctx, bag: BagRun, rc: RdlbConfig):
    obs = ctx.obs
    n_workers = bag.n
    stats = bag.stats
    ledger = bag.ledger
    lo, hi = bag.plan.unit_space()
    queue = list(range(lo, hi))
    policy = _make_policy(rc, hi - lo, n_workers)
    outstanding: dict[int, _Chunk] = {}
    next_chunk = 0
    chunks_served = 0
    dead: set[int] = set()
    stopped: set[int] = set()

    def _cut(pid: int, now: float):
        """Issue the next queue chunk, or reissue an outstanding one."""
        nonlocal next_chunk, chunks_served
        if queue:
            size = policy.next_chunk(len(queue), n_workers)
            units, del_ = tuple(queue[:size]), queue[:size]
            del queue[: len(del_)]
            cid = next_chunk
            next_chunk += 1
            outstanding[cid] = _Chunk(units, pid, now)
            chunks_served += 1
            return cid, units
        # Queue dry: reissue the oldest eligible outstanding chunk.
        best: int | None = None
        for cid, ch in outstanding.items():
            if pid in ch.assignees or len(ch.assignees) >= rc.dup_max:
                continue
            # Dead holders were discarded on their crash notice.
            if ch.assignees and now - ch.issued_at <= rc.reassign_after:
                continue  # live holder, recent issue: don't duplicate
            if best is None or ch.issued_at < outstanding[best].issued_at:
                best = cid
        if best is None:
            return None
        ch = outstanding[best]
        ch.assignees.add(pid)
        stats["reassigns"] = stats.get("reassigns", 0) + 1
        if obs.enabled:
            obs.metrics.counter("robust.reassigns").inc()
            obs.emit_counter(
                "robust", "reassign", now, float(len(ch.units)),
                pid=ctx.pid, meta={"chunk": best, "to": pid},
            )
        return best, ch.units

    def _serve(pid: int, now: float):
        """Answer one request: work, a reissue, retry-later, or stop."""
        cut = _cut(pid, now)
        if cut is None:
            if ledger.complete:
                stopped.add(pid)
                yield Send(pid, Tags.WORK, {"chunk": -1, "units": ()}, 16)
            else:
                # No chunk to give (all outstanding ones are held by
                # live recent workers); tell the worker to poll again.
                yield Send(
                    pid, Tags.WORK, {"chunk": -1, "units": (), "retry": True}, 16
                )
            return
        cid, units = cut
        payload, nbytes = bag.batch(units)
        payload["chunk"] = cid
        yield Send(pid, Tags.WORK, payload, nbytes)

    while not ledger.complete and len(dead) < n_workers:
        msg = yield Poll(tag=Tags.REQUEST)
        now = ctx.now
        for pid in bag.notices(ctx, dead, "robust"):
            # Crash notice: free the dead worker's chunks for reissue.
            for ch in outstanding.values():
                ch.assignees.discard(pid)
        if msg is None:
            yield Sleep(rc.tick)
            continue
        pid = msg.src
        p = msg.payload
        if p is not None:
            outstanding.pop(int(p["chunk"]), None)
            if not ledger.gather(p["units"], p.get("data")) and obs.enabled:
                # The other assignee finished first: duplicate result.
                obs.metrics.counter("robust.duplicates").inc()
        if pid not in dead:  # a request sent just before its host crashed
            yield from _serve(pid, now)

    # Release every live worker that has not been told to stop: it is
    # polling for work, or finishing a duplicate of a chunk that is
    # already done, and its next request finds this reply waiting.
    for pid in range(n_workers):
        if pid not in stopped and pid not in dead:
            yield Send(pid, Tags.WORK, {"chunk": -1, "units": ()}, 16)

    # Units are lost only when every worker crashed.
    lost = len(ledger.missing())
    if lost and obs.enabled:
        obs.metrics.counter("robust.lost_units").inc(lost)
    stats["chunks"] = chunks_served
    ledger.closed = True


def refuse_faults(faults: FaultPlan) -> str | None:
    if faults.message_faults or faults.partitions:
        return (
            "it accepts worker crashes and stalls only, not message faults "
            "or partitions"
        )
    return None


def run_rdlb(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    rdlb: RdlbConfig | None = None,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> RdlbResult:
    """Run ``plan`` under rDLB-style robust self-scheduling.

    ``faults`` may crash and stall workers.  Crash notices free a dead
    worker's chunks, and a stalled worker resumes and returns its chunk,
    so every outstanding chunk eventually completes and the run always
    terminates.  Plans with message faults or partitions are rejected.
    """
    run_cfg = run_cfg or RunConfig()
    rc = rdlb or RdlbConfig()
    bag = BagRun(
        "robust self-scheduling",
        plan,
        run_cfg,
        loads,
        seed=seed,
        recorder=recorder,
        faults=faults,
        refuse=refuse_faults,
    )
    for pid in range(bag.n):
        bag.cluster.spawn(pid, _rdlb_worker, plan, rc, bag.exec_num)
    bag.cluster.spawn(run_cfg.cluster.master_pid, _rdlb_master, bag, rc)
    bag.run()
    return bag.result(
        RdlbResult,
        chunking=rc.chunking,
        chunks_served=bag.stats.get("chunks", 0),
        reassigns=bag.stats.get("reassigns", 0),
        duplicate_results=bag.ledger.duplicates,
    )
