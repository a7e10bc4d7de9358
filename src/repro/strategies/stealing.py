"""Decentralized work stealing with termination detection.

Placement decisions are made by the *idle* processors: a worker that
runs out of units picks a random victim (seeded per-worker RNG, so runs
are deterministic) and asks for half of its pending units.  The paper's
design inverts this — a central master measures rates and pushes work —
so stealing is the adversarial baseline for workloads where rates are
meaningless: heavy-tailed per-unit cost, abrupt load spikes, anything
where the past does not predict the next unit.

Protocol (see :class:`~repro.strategies.protocol.StealTags`): STEAL is
answered by WORK (steal-half) or DENY; a thief whose victim stays silent
past ``steal_timeout`` sends ABORT and moves on, but still accepts a
late WORK so no units are lost in flight.  A passive coordinator counts
cumulative ``done`` from periodic reports and terminates when every unit
is accounted for.  Steals move units worker to worker, so it sees only
counts: after a crash notice it lets the live workers drain, then
gathers and re-issues what is missing
(:meth:`~repro.strategies.bagplane.BagRun.recover`).  A worker stuck in
a long unit is never mistaken for a dead one.

Supports PARALLEL_MAP plans: the bag-of-units custody model has no
meaning for dependence-carrying shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..sim import LoadGenerator, Poll, Send, Sleep
from .bagplane import BagRun, PlaneResult, result_part, serve_reissues, unit_work
from .protocol import StealTags

# Module-level alias named `Tags` so the protocol lint's AST resolver
# (which pairs `Tags.X` send/receive sites) sees this control plane's
# message sites exactly as it sees the central runtime's.
Tags = StealTags

__all__ = ["StealingConfig", "StealingResult", "run_stealing"]


@dataclass(frozen=True)
class StealingConfig:
    """Control-plane parameters of the work-stealing plane.

    Attributes:
        report_period: worker progress-report cadence.
        idle_tick: idle worker poll-loop sleep.
        tick: coordinator poll-loop sleep.
        steal_fraction: fraction of the victim's pending units a
            successful steal ships (0.5 = steal-half).
        steal_timeout: how long a thief waits for WORK/DENY before
            aborting the request and trying elsewhere.
        deny_backoff: how long a denied thief avoids the same victim.
        suspect_backoff: how long a timed-out thief avoids the victim
            (it is probably dead; much longer than deny_backoff).
        hard_stall: unconditional no-progress bound; termination is
            forced so a run can never hang, even when messages are lost
            past the transport's retries (no notice exists for those).
    """

    report_period: float = 0.5
    idle_tick: float = 0.02
    tick: float = 0.02
    steal_fraction: float = 0.5
    steal_timeout: float = 0.5
    deny_backoff: float = 0.2
    suspect_backoff: float = 2.0
    hard_stall: float = 60.0

    def __post_init__(self) -> None:
        if self.report_period <= 0:
            raise ConfigError("report_period must be positive")
        if self.idle_tick <= 0 or self.tick <= 0:
            raise ConfigError("poll ticks must be positive")
        if not 0 < self.steal_fraction <= 0.5:
            raise ConfigError("steal_fraction must be in (0, 0.5]")
        if self.steal_timeout <= 0:
            raise ConfigError("steal_timeout must be positive")
        if self.deny_backoff <= 0 or self.suspect_backoff <= 0:
            raise ConfigError("backoffs must be positive")
        if self.hard_stall <= 0:
            raise ConfigError("hard_stall must be positive")


@dataclass(kw_only=True)
class StealingResult(PlaneResult):
    """Outcome and metrics of one work-stealing run."""

    steals: int
    steal_hits: int
    steal_denies: int
    steal_aborts: int
    units_stolen: int

    def summary(self) -> str:
        lost = f" lost={self.lost_units}" if self.lost_units else ""
        return (
            f"{self.name}: P={self.n_slaves} elapsed={self.elapsed:.2f}s "
            f"speedup={self.speedup:.2f} steals={self.steal_hits}/{self.steals} "
            f"({self.units_stolen} units) deaths={self.deaths}{lost} "
            f"msgs={self.message_count}"
        )


def _worker_task(
    ctx,
    plan: ExecutionPlan,
    exec_num: bool,
    init_units: tuple[int, ...],
    local,
    n_workers: int,
    sc: StealingConfig,
    stats: dict,
    seed: int,
):
    kernels = plan.kernels
    unit_bytes = plan.movement.unit_bytes
    obs = ctx.obs
    pid = ctx.pid
    coord = ctx.master_pid
    rng = np.random.default_rng([seed, pid])
    pending = list(init_units)
    done_units: list[int] = []
    done = 0
    units_since = 0
    last_report = 0.0
    req_seq = 0
    # One outstanding steal request at a time: (victim, req_id, sent_at).
    outstanding: tuple[int, int, float] | None = None
    # Victim -> time before which we will not ask it again.
    avoid_until: dict[int, float] = {}
    # Requests this *victim* saw an ABORT for before the STEAL arrived.
    aborted_reqs: set[tuple[int, int]] = set()
    terminated = False
    hold = False  # after a crash: stay for re-issued units

    def _intake():
        """Drain the mailbox: thief, victim and termination arms."""
        nonlocal outstanding, terminated, hold
        while True:
            msg = yield Poll()
            if msg is None:
                return
            tag = msg.tag
            if tag == Tags.WORK:
                # Accept stolen units unconditionally — even when the
                # request was aborted (late WORK): dropping it would
                # lose the units the victim already gave up.
                units = list(msg.payload["units"])
                if exec_num and msg.payload.get("data") is not None:
                    kernels.unpack_units(
                        local, np.asarray(units), msg.payload["data"], {}
                    )
                pending.extend(units)
                pending.sort()
                stats["units_stolen"] = stats.get("units_stolen", 0) + len(units)
                if obs.enabled:
                    obs.metrics.counter("steal.hits").inc()
                    obs.metrics.counter("steal.units").inc(len(units))
                    obs.emit_counter(
                        "steal", "hit", ctx.now, float(len(units)),
                        pid=pid, meta={"victim": msg.src},
                    )
                if outstanding is not None and outstanding[1] == msg.payload["req"]:
                    outstanding = None
            elif tag == Tags.DENY:
                if outstanding is not None and outstanding[1] == msg.payload["req"]:
                    outstanding = None
                    avoid_until[msg.src] = ctx.now + sc.deny_backoff
                stats["denies"] = stats.get("denies", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.denies").inc()
            elif tag == Tags.STEAL:
                thief = int(msg.payload["thief"])
                req = int(msg.payload["req"])
                if (thief, req) in aborted_reqs:
                    aborted_reqs.discard((thief, req))
                    yield Send(thief, Tags.DENY, {"req": req}, 16)
                    continue
                k = int(len(pending) * sc.steal_fraction)
                if k >= 1 and thief != pid:
                    give = pending[-k:]
                    del pending[-k:]
                    payload: dict[str, Any] = {"req": req, "units": tuple(give)}
                    if exec_num:
                        payload["data"] = kernels.pack_units(
                            local, np.asarray(give), {}
                        )
                    yield Send(thief, Tags.WORK, payload, max(16, k * unit_bytes))
                    stats["serves"] = stats.get("serves", 0) + 1
                else:
                    yield Send(thief, Tags.DENY, {"req": req}, 16)
            elif tag == Tags.ABORT:
                # Remember the abort in case its STEAL arrives late
                # (reordered); a normally-ordered abort refers to an
                # already-served request and is dropped here.
                aborted_reqs.add((int(msg.payload["thief"]), int(msg.payload["req"])))
            elif tag == Tags.TERM:
                terminated = True
                hold = bool(msg.payload)
                return

    while not terminated:
        yield from _intake()
        if terminated:
            break
        now = ctx.now
        if pending:
            u = pending.pop(0)
            yield unit_work(plan, (u,), local, exec_num)
            done_units.append(u)
            done += 1
            units_since += 1
        else:
            if outstanding is None and n_workers > 1:
                candidates = [
                    v
                    for v in range(n_workers)
                    if v != pid and avoid_until.get(v, 0.0) <= now
                ]
                if candidates:
                    victim = int(rng.choice(candidates))
                    req_seq += 1
                    yield Send(
                        victim,
                        Tags.STEAL,
                        {"thief": pid, "req": req_seq},
                        16,
                    )
                    outstanding = (victim, req_seq, now)
                    stats["steals"] = stats.get("steals", 0) + 1
                    if obs.enabled:
                        obs.metrics.counter("steal.attempts").inc()
            elif outstanding is not None and now - outstanding[2] > sc.steal_timeout:
                victim, req, _ = outstanding
                yield Send(victim, Tags.ABORT, {"thief": pid, "req": req}, 16)
                avoid_until[victim] = now + sc.suspect_backoff
                outstanding = None
                stats["aborts"] = stats.get("aborts", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("steal.aborts").inc()
                    obs.emit_counter(
                        "steal", "abort", now, 1.0,
                        pid=pid, meta={"victim": victim},
                    )
            yield Sleep(sc.idle_tick)
        now = ctx.now
        if (now - last_report >= sc.report_period) or (units_since and not pending):
            yield Send(
                ctx.master_pid,
                Tags.REPORT,
                {"done": done, "remaining": len(pending)},
                32,
            )
            last_report = now
            units_since = 0

    for u in pending:  # stolen units that arrived after the last report
        yield unit_work(plan, (u,), local, exec_num)
    done_units.extend(pending)
    yield Send(coord, Tags.RESULT, *result_part(plan, done_units, local, exec_num))
    if hold:
        yield from serve_reissues(
            plan, exec_num, coord, Tags.WORK, Tags.RESULT, Tags.TERM
        )


def _coord_task(ctx, bag: BagRun, sc: StealingConfig):
    """Passive coordinator: termination detection, gather and re-issue."""
    n_workers = bag.n
    done_of = {pid: 0 for pid in range(n_workers)}
    rem_of = {pid: 1 for pid in range(n_workers)}  # busy until it reports
    dead: set[int] = set()
    last_progress = ctx.now

    while True:
        progressed = False
        while True:
            msg = yield Poll(tag=Tags.REPORT)
            if msg is None:
                break
            p = msg.payload
            if p["done"] > done_of[msg.src]:
                progressed = True
            done_of[msg.src] = int(p["done"])
            rem_of[msg.src] = int(p["remaining"])
        now = ctx.now
        if progressed:
            last_progress = now
        bag.notices(ctx, dead, "steal")
        if sum(done_of.values()) >= bag.total:
            break
        live = [pid for pid in range(n_workers) if pid not in dead]
        if not live or (dead and all(rem_of[pid] == 0 for pid in live)):
            break  # every live worker drained: gather, then re-issue
        if now - last_progress > sc.hard_stall:
            break  # unconditional: a stealing run must never hang
        yield Sleep(sc.tick)

    # TERM asks for each worker's results; after a crash it also holds
    # the worker for the re-issue of the units the crash lost.
    hold = bool(dead)
    for pid in range(n_workers):
        yield Send(pid, Tags.TERM, hold, 16)
    yield from bag.recover(
        ctx,
        dead,
        set(range(n_workers)),
        Poll(tag=Tags.RESULT),
        (lambda pid, payload, nbytes: Send(pid, Tags.WORK, payload, nbytes))
        if hold
        else None,
        plane="steal",
        tick=sc.tick,
        give_up=sc.hard_stall,
    )
    if hold:
        for pid in range(n_workers):
            if pid not in dead:
                yield Send(pid, Tags.TERM, False, 16)
    bag.ledger.closed = True


def run_stealing(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    stealing: StealingConfig | None = None,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
) -> StealingResult:
    """Run ``plan`` under decentralized work stealing.

    ``run_cfg.cluster.n_slaves`` is the worker count; the termination
    coordinator runs on the master processor.  Every fault kind is
    accepted.  A crashed worker's un-gathered units are re-issued to the
    live workers, or computed by the coordinator when none is left to
    take them, so no unit is lost.
    """
    run_cfg = run_cfg or RunConfig()
    sc = stealing or StealingConfig()
    bag = BagRun(
        "work stealing",
        plan,
        run_cfg,
        loads,
        seed=seed,
        recorder=recorder,
        faults=faults,
    )
    n = bag.n
    stats = bag.stats
    for pid, units, local in bag.split():
        bag.cluster.spawn(
            pid, _worker_task, plan, bag.exec_num, units, local, n, sc, stats, seed
        )
    bag.cluster.spawn(run_cfg.cluster.master_pid, _coord_task, bag, sc)
    bag.run()
    return bag.result(
        StealingResult,
        steals=stats.get("steals", 0),
        steal_hits=stats.get("serves", 0),
        steal_denies=stats.get("denies", 0),
        steal_aborts=stats.get("aborts", 0),
        units_stolen=stats.get("units_stolen", 0),
    )
