"""Finite-state abstraction of the work-stealing control plane.

Models the steal/deny/abort protocol of ``strategies/stealing.py`` for
exhaustive verification (``repro check --model --model-plane steal``):

- **Workers** compute their own units one at a time, reporting
  ``(done, remaining)`` counts to the passive coordinator after every
  unit.  An idle worker sends ``st.steal`` to a victim and waits; the
  victim answers ``st.work`` (steal-half) or ``st.deny``.  A waiting
  thief may nondeterministically time out — it sends ``st.abort`` and
  resumes; the victim remembers aborted request ids so a late
  (tag-selectively reordered) ``st.steal`` is denied rather than served
  twice, while the thief accepts late ``st.work`` unconditionally
  (stolen units must never be dropped).
- **The coordinator** broadcasts ``st.term`` once the reported done
  counts cover every unit or, after a crash, every live worker is idle;
  workers finish their units and answer ``st.result``.  After a crash
  the broadcast holds them: the coordinator re-issues the units no
  result covers (its own ``st.work``) until none is missing, computes
  what no live worker can take, and releases them with a final
  ``st.term``.  It must close with every unit gathered (``RA701``).
- **Crashes.**  Workers named in ``crashable`` may crash at any point
  before their release; an accurate-failure-detector oracle message
  (pseudo-source ``fd``) informs the coordinator, exactly as in the FT
  model.  Stealing custody stays exact: every unit is always held by
  exactly one worker (crashed ones included) or one in-flight
  worker-to-worker ``st.work`` payload; re-issued copies are kept apart
  from it.

The steal request counter is bounded by ``max_steals`` (a thief that
exhausts its attempts parks until ``st.work`` or ``st.term`` arrives),
keeping the state space finite; this under-approximates the runtime's
unbounded retry loop but preserves every reordering race around a
single steal transaction, which is where the protocol bugs live —
selective receive lets the victim see the ``st.abort`` *before* the
``st.steal`` it cancels, so the aborted-request dedup arm is reachable
even at ``max_steals=1``.  (``max_steals=2`` multiplies the space
roughly 60x — 225k states at the default size — and was verified clean
during development; the sweep stays at 1 to keep ``repro check
--model`` fast.)

``MUTATIONS`` seeds protocol corruptions the checker must catch:
dropping the termination broadcast (deadlock), forgetting stolen units
on serve (loss), serving units twice (duplication), a thief ignoring
post-abort work (loss), and a coordinator that terminates without
re-issuing what a crash lost (loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple

from ..analysis.model.core import Invariant, Model, Msg, Step, selective

__all__ = ["COORD", "MUTATIONS", "StealConfig", "build_model"]

COORD = "co"

#: Seeded protocol corruptions for the checker's test suite.
MUTATIONS: dict[str, str] = {
    "drop_term": "the coordinator never broadcasts st.term",
    "lose_stolen_units": "the victim forgets stolen units when serving",
    "double_serve": "the victim serves units it already gave away",
    "ignore_late_work": "a thief drops st.work arriving after its abort",
    "skip_reissue": "the coordinator terminates with a crash's units lost",
}


@dataclass(frozen=True)
class StealConfig:
    """One work-stealing model configuration."""

    n_workers: int = 2
    units: int = 3
    max_steals: int = 1
    crashable: tuple[str, ...] = ()

    def worker_names(self) -> tuple[str, ...]:
        return tuple(f"w{i}" for i in range(self.n_workers))


class WLocal(NamedTuple):
    """One worker's local state."""

    remaining: frozenset[int]
    done: frozenset[int]
    drained: frozenset[int]  # late st.work absorbed after termination
    phase: str  # "run" | "wait" | "held" | "term" | "crashed"
    next_req: int
    outstanding: tuple[str, int] | None  # (victim, req) awaiting reply
    steals_left: int
    aborted: frozenset[tuple[str, int]]  # victim side: aborted (thief, req)


class CLocal(NamedTuple):
    """The coordinator's local state."""

    done_of: tuple[tuple[str, int], ...]  # sorted worker -> done count
    rem_of: tuple[tuple[str, int], ...]  # sorted worker -> remaining count
    dead: frozenset[str]
    termed: bool
    hold: bool  # the broadcast held the workers for re-issue
    waiting: frozenset[str]  # workers whose st.result is due
    gathered: frozenset[int]  # the custody ledger
    closed: bool


def _get(table: tuple[tuple[str, int], ...], name: str) -> int:
    for key, value in table:
        if key == name:
            return value
    return 0


def _put(
    table: tuple[tuple[str, int], ...], name: str, value: int
) -> tuple[tuple[str, int], ...]:
    out = dict(table)
    out[name] = value
    return tuple(sorted(out.items()))


class StealWorker:
    """One worker of the stealing plane."""

    def __init__(self, name: str, cfg: StealConfig, mutation: str | None):
        self.name = name
        self.cfg = cfg
        self.mutation = mutation
        self.crashable = name in cfg.crashable

    def init(self) -> Hashable:
        units = (
            frozenset(range(self.cfg.units))
            if self.name == "w0"
            else frozenset()
        )
        return WLocal(
            remaining=units,
            done=frozenset(),
            drained=frozenset(),
            phase="run",
            next_req=0,
            outstanding=None,
            steals_left=self.cfg.max_steals,
            aborted=frozenset(),
        )

    def _report(self, s: WLocal) -> Msg:
        return Msg(
            self.name,
            COORD,
            "st.report",
            (len(s.done), len(s.remaining)),
        )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, WLocal)
        if s.phase == "crashed":
            return

        # -- intake: st.work ------------------------------------------------
        for msg in selective(pending, lambda m: m.tag == "st.work"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            units = frozenset(int(u) for u in payload)
            if msg.src == COORD:
                # Re-issued units (only sent to a held worker), input
                # included: compute them and hand their results over.
                yield Step(
                    actor=self.name,
                    label=f"reissued({sorted(units)})",
                    next_state=s,
                    consumed=msg,
                    sends=(Msg(self.name, COORD, "st.result", payload),),
                )
                continue
            if self.mutation == "ignore_late_work" and s.outstanding is None:
                # BUG: the thief already aborted, so it throws the
                # stolen units away instead of accepting them.
                yield Step(
                    actor=self.name,
                    label=f"work({sorted(units)}: ignored after abort)",
                    next_state=s,
                    consumed=msg,
                )
                continue
            if s.phase in ("held", "term"):
                # Post-termination arrival: no result will carry these
                # units, so the coordinator's ledger misses them and
                # re-issues them; custody is still accounted.
                yield Step(
                    actor=self.name,
                    label=f"work({sorted(units)}: drained after term)",
                    next_state=s._replace(drained=s.drained | units),
                    consumed=msg,
                )
                continue
            yield Step(
                actor=self.name,
                label=f"work({sorted(units)})",
                next_state=s._replace(
                    remaining=s.remaining | units,
                    phase="run" if s.phase == "wait" else s.phase,
                    outstanding=None,
                ),
                consumed=msg,
            )

        # -- intake: st.deny ------------------------------------------------
        for msg in selective(pending, lambda m: m.tag == "st.deny"):
            if s.phase == "wait" and s.outstanding is not None:
                yield Step(
                    actor=self.name,
                    label="deny",
                    next_state=s._replace(phase="run", outstanding=None),
                    consumed=msg,
                )
            else:
                yield Step(
                    actor=self.name,
                    label="deny(stale: dropped)",
                    next_state=s,
                    consumed=msg,
                )

        # -- intake: st.steal (victim side) --------------------------------
        for msg in selective(pending, lambda m: m.tag == "st.steal"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            thief, req = str(payload[0]), int(payload[1])
            k = len(s.remaining) // 2
            if (
                (thief, req) in s.aborted
                or k < 1
                or s.phase in ("held", "term")
            ):
                yield Step(
                    actor=self.name,
                    label=f"steal({thief}#{req}: deny)",
                    next_state=s,
                    consumed=msg,
                    sends=(Msg(self.name, thief, "st.deny", (req,)),),
                )
                continue
            booty = tuple(sorted(s.remaining)[:k])
            kept = (
                s.remaining
                if self.mutation == "double_serve"
                else s.remaining - frozenset(booty)
            )
            sent = (
                () if self.mutation == "lose_stolen_units" else booty
            )
            yield Step(
                actor=self.name,
                label=f"steal({thief}#{req}: serve {list(booty)})",
                next_state=s._replace(remaining=kept),
                consumed=msg,
                sends=(Msg(self.name, thief, "st.work", sent),),
            )

        # -- intake: st.abort (victim side) --------------------------------
        for msg in selective(pending, lambda m: m.tag == "st.abort"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            thief, req = str(payload[0]), int(payload[1])
            yield Step(
                actor=self.name,
                label=f"abort({thief}#{req})",
                next_state=s._replace(
                    aborted=s.aborted | {(thief, req)}
                ),
                consumed=msg,
            )

        # -- intake: st.term ------------------------------------------------
        for msg in selective(pending, lambda m: m.tag == "st.term"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            hold = bool(payload and payload[0])
            if s.phase in ("run", "wait"):
                # Finish the own units, then hand every result over.
                done = s.done | s.remaining
                yield Step(
                    actor=self.name,
                    label="term(hold)" if hold else "term",
                    next_state=s._replace(
                        remaining=frozenset(),
                        done=done,
                        phase="held" if hold else "term",
                        outstanding=None,
                    ),
                    consumed=msg,
                    sends=(
                        Msg(self.name, COORD, "st.result", tuple(sorted(done))),
                    ),
                )
            elif s.phase == "held" and not hold:
                yield Step(
                    actor=self.name,
                    label="release",
                    next_state=s._replace(phase="term"),
                    consumed=msg,
                )
            else:
                yield Step(
                    actor=self.name,
                    label="term(dup: dropped)",
                    next_state=s,
                    consumed=msg,
                )

        # -- internal: compute one unit ------------------------------------
        if s.phase == "run" and s.remaining:
            u = min(s.remaining)
            nxt = s._replace(
                remaining=s.remaining - {u}, done=s.done | {u}
            )
            yield Step(
                actor=self.name,
                label=f"compute(u{u})",
                next_state=nxt,
                sends=(self._report(nxt),),
            )

        # -- internal: start a steal ---------------------------------------
        if (
            s.phase == "run"
            and not s.remaining
            and s.steals_left > 0
            and self.cfg.n_workers > 1
        ):
            for victim in self.cfg.worker_names():
                if victim == self.name:
                    continue
                yield Step(
                    actor=self.name,
                    label=f"steal->{victim}#{s.next_req}",
                    next_state=s._replace(
                        phase="wait",
                        outstanding=(victim, s.next_req),
                        next_req=s.next_req + 1,
                        steals_left=s.steals_left - 1,
                    ),
                    sends=(
                        Msg(
                            self.name,
                            victim,
                            "st.steal",
                            (self.name, s.next_req),
                        ),
                    ),
                )

        # -- internal: steal timeout ---------------------------------------
        if s.phase == "wait" and s.outstanding is not None:
            victim, req = s.outstanding
            yield Step(
                actor=self.name,
                label=f"timeout({victim}#{req})",
                next_state=s._replace(phase="run", outstanding=None),
                sends=(
                    Msg(self.name, victim, "st.abort", (self.name, req)),
                ),
            )

        # -- internal: crash -----------------------------------------------
        if self.crashable and s.phase != "term":
            yield Step(
                actor=self.name,
                label="crash",
                next_state=s._replace(phase="crashed", outstanding=None),
                sends=(Msg("fd", COORD, "st.crash", (self.name,)),),
            )


class StealCoordinator:
    """The passive termination coordinator."""

    name = COORD

    def __init__(self, cfg: StealConfig, mutation: str | None):
        self.cfg = cfg
        self.mutation = mutation

    def init(self) -> Hashable:
        zero = tuple(sorted((w, 0) for w in self.cfg.worker_names()))
        return CLocal(
            done_of=zero,
            rem_of=tuple(
                sorted(
                    (w, self.cfg.units if w == "w0" else 0)
                    for w in self.cfg.worker_names()
                )
            ),
            dead=frozenset(),
            termed=False,
            hold=False,
            waiting=frozenset(),
            gathered=frozenset(),
            closed=False,
        )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, CLocal)

        for msg in selective(pending, lambda m: m.tag == "st.report"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            done, rem = int(payload[0]), int(payload[1])
            yield Step(
                actor=self.name,
                label=f"report({msg.src}: {done}/{rem})",
                next_state=s._replace(
                    done_of=_put(
                        s.done_of,
                        msg.src,
                        max(_get(s.done_of, msg.src), done),
                    ),
                    rem_of=_put(s.rem_of, msg.src, rem),
                ),
                consumed=msg,
            )

        for msg in selective(pending, lambda m: m.tag == "st.crash"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            victim = str(payload[0])
            yield Step(
                actor=self.name,
                label=f"crash({victim})",
                next_state=s._replace(
                    dead=s.dead | {victim}, waiting=s.waiting - {victim}
                ),
                consumed=msg,
            )

        for msg in selective(pending, lambda m: m.tag == "st.result"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            yield Step(
                actor=self.name,
                label=f"result({msg.src}: {list(payload)})",
                next_state=s._replace(
                    gathered=s.gathered | {int(u) for u in payload},
                    waiting=s.waiting - {msg.src},
                ),
                consumed=msg,
            )

        workers = self.cfg.worker_names()
        live = [w for w in workers if w not in s.dead]
        if not s.termed and self.mutation != "drop_term":
            done_total = sum(v for _, v in s.done_of)
            live_idle = all(_get(s.rem_of, w) == 0 for w in live)
            if done_total >= self.cfg.units or (s.dead and live_idle):
                hold = bool(s.dead)
                yield Step(
                    actor=self.name,
                    label="term-broadcast(hold)" if hold else "term-broadcast",
                    next_state=s._replace(
                        termed=True, hold=hold, waiting=frozenset(live)
                    ),
                    sends=tuple(
                        Msg(self.name, w, "st.term", (hold,)) for w in workers
                    ),
                )

        if not s.termed or s.closed or s.waiting:
            return
        missing = sorted(set(range(self.cfg.units)) - s.gathered)
        if s.hold and missing and live and self.mutation != "skip_reissue":
            # The re-issue rule: split the missing units over the live
            # workers; the first result of each unit wins.
            k = len(live)
            sends = tuple(
                Msg(self.name, w, "st.work", tuple(missing[i::k]))
                for i, w in enumerate(live)
                if missing[i::k]
            )
            yield Step(
                actor=self.name,
                label=f"reissue({missing})",
                next_state=s._replace(waiting=frozenset(m.dst for m in sends)),
                sends=sends,
            )
            return
        # Nothing missing, or no worker left to take it: the coordinator
        # computes the rest itself (BUG under skip_reissue: it does not),
        # then releases the held workers.
        computed = frozenset(() if self.mutation == "skip_reissue" else missing)
        yield Step(
            actor=self.name,
            label=f"close(computed {missing})" if computed else "close",
            next_state=s._replace(closed=True, gathered=s.gathered | computed),
            sends=tuple(
                Msg(self.name, w, "st.term", (False,)) for w in live if s.hold
            ),
        )


def unit_conservation(cfg: StealConfig) -> Invariant:
    """Stealing keeps one custodian per unit; termination gathers all.

    Custodians: any worker's ``remaining``/``done``/``drained`` set
    (crashed workers included: the units a crash lost are still *where*
    they were), or an in-flight worker-to-worker ``st.work`` payload
    (including one to a crashed thief).  Re-issued copies (the
    coordinator's ``st.work``) are a second execution, not custody.
    Once the coordinator has closed, its ledger must hold every unit
    (``RA701``).
    """

    def check(
        locals_: Mapping[str, Hashable],
        channels: Mapping[tuple[str, str], tuple[Msg, ...]],
    ) -> tuple[str, str] | None:
        counts = {u: 0 for u in range(cfg.units)}
        for _name, local in locals_.items():
            if isinstance(local, CLocal) and local.closed:
                ungathered = sorted(set(counts) - local.gathered)
                if ungathered:
                    return (
                        "RA701",
                        f"unit(s) {ungathered} never gathered (lost with a "
                        f"crashed worker)",
                    )
            if not isinstance(local, WLocal):
                continue
            for u in local.remaining | local.done | local.drained:
                counts[u] = counts.get(u, 0) + 1
        for (src, _dst), msgs in channels.items():
            for msg in msgs:
                if msg.tag != "st.work" or src == COORD:
                    continue
                payload = msg.payload
                assert isinstance(payload, tuple)
                for u in payload:
                    counts[int(u)] = counts.get(int(u), 0) + 1
        dup = sorted(u for u, c in counts.items() if c > 1)
        if dup:
            return (
                "RA702",
                f"unit(s) {dup} have more than one custodian "
                f"(duplicated by stealing)",
            )
        lost = sorted(u for u, c in counts.items() if c == 0)
        if lost:
            return (
                "RA701",
                f"unit(s) {lost} have no custodian (lost by stealing)",
            )
        return None

    return check


def build_model(
    cfg: StealConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the work-stealing model for one configuration."""
    cfg = cfg or StealConfig()
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")

    def terminal(locals_: Mapping[str, Hashable]) -> bool:
        coord = locals_[COORD]
        assert isinstance(coord, CLocal)
        return coord.closed and all(
            local.phase in ("term", "crashed")
            for local in locals_.values()
            if isinstance(local, WLocal)
        )

    def dead_of(locals_: Mapping[str, Hashable]) -> frozenset[str]:
        return frozenset(
            name
            for name, local in locals_.items()
            if isinstance(local, WLocal) and local.phase == "crashed"
        )

    workers = [
        StealWorker(name, cfg, mutation) for name in cfg.worker_names()
    ]
    tag = f"steal-P{cfg.n_workers}-u{cfg.units}"
    if cfg.crashable:
        tag += f"-crash[{','.join(cfg.crashable)}]"
    if mutation:
        tag += f"!{mutation}"
    return Model(
        name=tag,
        plane="steal",
        actors=[*workers, StealCoordinator(cfg, mutation)],
        invariants=[unit_conservation(cfg)],
        terminal=terminal,
        dead_of=dead_of,
        notes=(
            "steal/deny/abort with tag-selective reordering; bounded "
            f"steal attempts ({cfg.max_steals}); accurate-FD crash "
            "oracle; coordinator termination by report counts, then "
            "gather and re-issue of what a crash lost"
        ),
    )
