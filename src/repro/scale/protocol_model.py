"""Finite-state abstraction of the hierarchical ``sc.*`` control plane.

Models the sub-master tree of :mod:`repro.scale.hierarchy` at its
protocol skeleton:

- Leaves hold all unit custody: they work their bag, send *cumulative*
  ``sc.report`` ``(done, remaining)`` to their **current** parent after
  every unit (the final ``remaining == 0`` report doubles as the idle
  notice), ship units leaf-to-leaf on ``sc.take``, and answer
  ``sc.term`` with ``sc.result``.
- Sub-masters never hold units: they fold each child report into a
  shard view, forward one cumulative ``sc.sum`` per report upward, and
  route ``sc.take`` orders toward their most-loaded child.
- The root declares termination only when every live child's cumulative
  ``done`` is known and sums to the unit count; a crashed sub-master's
  orphans are adopted with ``sc.reparent`` and their next cumulative
  report reconstructs the shard's progress (the point of cumulative
  counters in the real plane).

Verified properties: deadlock-freedom and termination reachability
across sub-master crashes (``RA601``/``RA602``), leaf-custody unit
conservation including in-flight ``sc.units`` payloads
(``RA701``/``RA702``), and no-premature-termination — a leaf receiving
``sc.term`` while it still owns unworked units flags the transition
(``RA704``).  Out of scope: rate filtering, proportional move sizing
and timer cadences (reports are event-driven here).  Leaf crashes are
recovered by the runtime's re-issue path (the custody ledger of
:mod:`repro.strategies.bagplane`), which this model does not cover yet:
the stealing model checks that path, and the hierarchy will share it
once runtime and model run the same transition code (ROADMAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from ..analysis.model.core import Invariant, Model, Msg, Step, selective

__all__ = ["HierConfig", "MUTATIONS", "build_model"]

ROOT = "root"

#: Seeded hierarchical-protocol corruptions for the checker's test suite.
MUTATIONS: dict[str, str] = {
    "reparent_drop": (
        "root adopts a dead sub-master's shard but never tells the "
        "orphan leaves"
    ),
    "double_count_sum": (
        "root accumulates cumulative summaries as if they were deltas"
    ),
    "lose_shipped_units": (
        "a leaf debits its bag on sc.take but the sc.units payload is "
        "empty"
    ),
}

#: Root's per-child progress view before the first report arrives.
UNKNOWN = -1


@dataclass(frozen=True)
class HierConfig:
    """Shape of the explored tree (root -> subs -> one leaf each)."""

    n_subs: int = 2
    units: int = 3
    moves: int = 1
    crashable: tuple[str, ...] = ("m1",)
    mutation: str | None = None

    def sub_names(self) -> list[str]:
        return [f"m{i}" for i in range(self.n_subs)]

    def leaf_names(self) -> list[str]:
        return [f"l{i}" for i in range(self.n_subs)]

    def leaf_of(self, sub: str) -> str:
        return "l" + sub[1:]

    def initial_owned(self, index: int) -> frozenset[int]:
        return frozenset(
            u for u in range(self.units) if u % self.n_subs == index
        )


class LeafLocal(NamedTuple):
    phase: str  # init | run | done
    parent: str
    owned: tuple[int, ...]
    completed: tuple[int, ...]


class HierLeaf:
    """Unit custodian: works its bag, reports cumulatively upward."""

    def __init__(self, name: str, cfg: HierConfig, index: int):
        self.name = name
        self.cfg = cfg
        self.index = index

    def init(self) -> Hashable:
        return LeafLocal(
            phase="init",
            parent=f"m{self.index}",
            owned=tuple(sorted(self.cfg.initial_owned(self.index))),
            completed=(),
        )

    def _report(self, s: LeafLocal) -> Msg:
        return Msg(
            self.name,
            s.parent,
            "sc.report",
            (len(s.completed), len(s.owned)),
        )

    def _ctrl_steps(
        self, s: LeafLocal, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        for msg in selective(pending, lambda m: m.tag == "sc.reparent"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            adopted = s._replace(
                phase="run" if s.phase == "init" else s.phase,
                parent=str(payload[0]),
            )
            yield Step(
                actor=self.name,
                label=f"reparent(-> {payload[0]})",
                next_state=adopted,
                consumed=msg,
                # The cumulative re-report is what lets the new parent
                # reconstruct this shard's progress.
                sends=(self._report(adopted),),
            )
        for msg in selective(pending, lambda m: m.tag == "sc.take"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            count, dst = payload
            ship = tuple(sorted(s.owned)[: int(count)])
            if not ship:
                yield Step(
                    actor=self.name,
                    label="take(nothing left)",
                    next_state=s,
                    consumed=msg,
                )
                continue
            payload_units: tuple[int, ...] = ship
            if self.cfg.mutation == "lose_shipped_units":
                payload_units = ()
            yield Step(
                actor=self.name,
                label=f"ship({list(ship)} -> {dst})",
                next_state=s._replace(
                    owned=tuple(u for u in s.owned if u not in ship)
                ),
                consumed=msg,
                sends=(Msg(self.name, str(dst), "sc.units", payload_units),),
            )
        for msg in selective(pending, lambda m: m.tag == "sc.units"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            yield Step(
                actor=self.name,
                label=f"intake({list(payload)})",
                next_state=s._replace(
                    phase="run" if s.phase == "init" else s.phase,
                    owned=tuple(sorted(set(s.owned) | set(payload))),
                ),
                consumed=msg,
            )
        for msg in selective(pending, lambda m: m.tag == "sc.term"):
            violation = None
            if s.owned:
                violation = (
                    "RA704",
                    f"leaf {self.name} terminated while still owning "
                    f"unworked unit(s) {list(s.owned)}: the root "
                    f"declared completion prematurely",
                )
            yield Step(
                actor=self.name,
                label="term -> result",
                next_state=s._replace(phase="done"),
                consumed=msg,
                sends=(Msg(self.name, ROOT, "sc.result", s.owned),),
                violation=violation,
            )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, LeafLocal)
        if s.phase == "done":
            return
        yield from self._ctrl_steps(s, pending)
        if s.phase == "init":
            nxt = s._replace(phase="run")
            yield Step(
                actor=self.name,
                label="report_initial",
                next_state=nxt,
                sends=(self._report(nxt),),
            )
        elif s.phase == "run" and s.owned:
            unit = min(s.owned)
            nxt = s._replace(
                owned=tuple(u for u in s.owned if u != unit),
                completed=tuple(sorted(s.completed + (unit,))),
            )
            yield Step(
                actor=self.name,
                label=f"work({unit})",
                next_state=nxt,
                sends=(self._report(nxt),),
            )


class SubLocal(NamedTuple):
    phase: str  # run | done | crashed
    view: tuple[tuple[str, tuple[int, int]], ...]  # kid -> (done, rem)


class HierSub:
    """Order router and aggregator: holds a view, never units."""

    def __init__(self, name: str, cfg: HierConfig):
        self.name = name
        self.cfg = cfg
        self.crashable = name in cfg.crashable
        self.kids = (cfg.leaf_of(name),)

    def init(self) -> Hashable:
        return SubLocal(
            phase="run",
            view=tuple((k, (UNKNOWN, UNKNOWN)) for k in self.kids),
        )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        s = local
        assert isinstance(s, SubLocal)
        if s.phase != "run":
            return
        if self.crashable:
            yield Step(
                actor=self.name,
                label="crash",
                next_state=s._replace(phase="crashed"),
                sends=(Msg("fd", ROOT, "fd.crash", (self.name,)),),
            )
        for msg in selective(pending, lambda m: m.tag == "sc.report"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            done, rem = payload
            view = tuple(
                (k, (done, rem) if k == msg.src else v) for k, v in s.view
            )
            known = [v for _, v in view if v[0] != UNKNOWN]
            total_done = sum(v[0] for v in known)
            total_rem = sum(v[1] for v in known)
            yield Step(
                actor=self.name,
                label=f"sum({msg.src}: done={done} rem={rem})",
                next_state=s._replace(view=view),
                consumed=msg,
                sends=(
                    Msg(
                        self.name,
                        ROOT,
                        "sc.sum",
                        (total_done, total_rem),
                    ),
                ),
            )
        for msg in selective(pending, lambda m: m.tag == "sc.take"):
            payload = msg.payload
            assert isinstance(payload, tuple)
            count, dst = payload
            loaded = [k for k, v in s.view if v[1] not in (UNKNOWN, 0)]
            if not loaded:
                yield Step(
                    actor=self.name,
                    label="take(no loaded kid)",
                    next_state=s,
                    consumed=msg,
                )
                continue
            target = max(
                loaded, key=lambda k: dict(s.view)[k][1]
            )
            yield Step(
                actor=self.name,
                label=f"route take -> {target}",
                next_state=s,
                consumed=msg,
                sends=(
                    Msg(self.name, target, "sc.take", (count, dst)),
                ),
            )
        for msg in selective(pending, lambda m: m.tag == "sc.term"):
            yield Step(
                actor=self.name,
                label="term",
                next_state=s._replace(phase="done"),
                consumed=msg,
            )


class RootLocal(NamedTuple):
    phase: str  # run | term_wait | final
    children: tuple[str, ...]
    view: tuple[tuple[str, tuple[int, int]], ...]
    dead: frozenset[str]
    moves_left: int
    results: frozenset[str]


class HierRoot:
    """Top of the tree: balance, adopt orphans, declare termination."""

    def __init__(self, cfg: HierConfig):
        self.name = ROOT
        self.cfg = cfg

    def init(self) -> Hashable:
        subs = tuple(self.cfg.sub_names())
        return RootLocal(
            phase="run",
            children=subs,
            view=tuple((c, (UNKNOWN, UNKNOWN)) for c in subs),
            dead=frozenset(),
            moves_left=self.cfg.moves,
            results=frozenset(),
        )

    def _view_update(
        self, m: RootLocal, child: str, done: int, rem: int
    ) -> tuple[RootLocal, tuple[str, str] | None]:
        violation: tuple[str, str] | None = None
        if self.cfg.mutation == "double_count_sum":
            old = dict(m.view).get(child, (UNKNOWN, UNKNOWN))[0]
            done = (0 if old == UNKNOWN else old) + done
        view = tuple(
            (c, (done, rem) if c == child else v) for c, v in m.view
        )
        return m._replace(view=view), violation

    def _maybe_terminate(
        self, m: RootLocal
    ) -> tuple[RootLocal, tuple[Msg, ...]] | None:
        if any(v[0] == UNKNOWN for _, v in m.view):
            return None
        if sum(v[0] for _, v in m.view) < self.cfg.units:
            return None
        sends = [
            Msg(self.name, leaf, "sc.term", ())
            for leaf in self.cfg.leaf_names()
        ] + [
            Msg(self.name, sub, "sc.term", ())
            for sub in self.cfg.sub_names()
            if sub not in m.dead
        ]
        return m._replace(phase="term_wait"), tuple(sends)

    def _progress_step(
        self, m: RootLocal, msg: Msg, done: int, rem: int
    ) -> Step:
        nxt, violation = self._view_update(m, msg.src, done, rem)
        term = self._maybe_terminate(nxt)
        sends: tuple[Msg, ...] = ()
        label = f"view({msg.src}: done={done} rem={rem})"
        if term is not None:
            nxt, sends = term
            label += " + TERM"
        return Step(
            actor=self.name,
            label=label,
            next_state=nxt,
            consumed=msg,
            sends=sends,
            violation=violation,
        )

    def _declare_step(self, m: RootLocal, msg: Msg) -> Step:
        payload = msg.payload
        assert isinstance(payload, tuple)
        victim = str(payload[0])
        if victim in m.dead or m.phase != "run":
            label = (
                f"fd({victim}: already declared)"
                if victim in m.dead
                else f"declare_dead({victim}) post-term"
            )
            return Step(
                actor=self.name,
                label=label,
                next_state=m._replace(dead=m.dead | {victim}),
                consumed=msg,
            )
        orphan = self.cfg.leaf_of(victim)
        children = tuple(
            c for c in m.children if c != victim
        ) + (orphan,)
        view = tuple(
            (c, v) for c, v in m.view if c != victim
        ) + ((orphan, (UNKNOWN, UNKNOWN)),)
        sends: tuple[Msg, ...] = (
            Msg(self.name, orphan, "sc.reparent", (self.name,)),
        )
        if self.cfg.mutation == "reparent_drop":
            sends = ()
        return Step(
            actor=self.name,
            label=f"declare_dead({victim}) + adopt({orphan})",
            next_state=m._replace(
                children=children, view=view, dead=m.dead | {victim}
            ),
            consumed=msg,
            sends=sends,
        )

    def _balance_step(self, m: RootLocal) -> Step | None:
        if m.moves_left <= 0:
            return None
        view = dict(m.view)
        loaded = sorted(
            c for c, v in m.view if v[1] != UNKNOWN and v[1] >= 2
        )
        idle = sorted(c for c, v in m.view if v[1] == 0)
        if not loaded or not idle:
            return None
        src, dst_child = loaded[0], idle[0]
        dst_leaf = (
            dst_child
            if dst_child in self.cfg.leaf_names()
            else self.cfg.leaf_of(dst_child)
        )
        surplus = view[src][1]
        return Step(
            actor=self.name,
            label=f"take({src} -> {dst_leaf})",
            next_state=m._replace(moves_left=m.moves_left - 1),
            sends=(
                Msg(
                    self.name,
                    src,
                    "sc.take",
                    (max(1, surplus // 2), dst_leaf),
                ),
            ),
        )

    def steps(
        self, local: Hashable, pending: tuple[Msg, ...]
    ) -> Iterable[Step]:
        m = local
        assert isinstance(m, RootLocal)
        for msg in selective(pending, lambda x: x.tag == "fd.crash"):
            yield self._declare_step(m, msg)
        if m.phase == "final":
            return
        children = set(m.children)
        for msg in selective(
            pending,
            lambda x: x.tag in ("sc.sum", "sc.report")
            and (m.phase != "run" or x.src not in children),
        ):
            yield Step(
                actor=self.name,
                label=f"discard stray {msg.tag} from {msg.src}",
                next_state=m,
                consumed=msg,
            )
        if m.phase == "term_wait":
            for msg in selective(
                pending, lambda x: x.tag == "sc.result"
            ):
                results = m.results | {msg.src}
                complete = results >= set(self.cfg.leaf_names())
                yield Step(
                    actor=self.name,
                    label=f"result({msg.src})"
                    + (" + final" if complete else ""),
                    next_state=m._replace(
                        results=results,
                        phase="final" if complete else "term_wait",
                    ),
                    consumed=msg,
                )
            return
        for msg in selective(
            pending,
            lambda x: x.tag in ("sc.sum", "sc.report")
            and x.src in children,
        ):
            payload = msg.payload
            assert isinstance(payload, tuple)
            yield self._progress_step(
                m, msg, int(payload[0]), int(payload[1])
            )
        balance = self._balance_step(m)
        if balance is not None:
            yield balance


# -- invariants and model assembly -------------------------------------


def leaf_conservation(cfg: HierConfig) -> Invariant:
    """Every unit has exactly one custodian: a leaf's bag, a leaf's
    completed set, or an in-flight leaf-to-leaf ``sc.units`` payload
    (sub-masters must never hold units — the plane's custody rule)."""

    leaf_names = set(cfg.leaf_names())

    def check(
        locals_: Mapping[str, Hashable],
        channels: Mapping[tuple[str, str], tuple[Msg, ...]],
    ) -> tuple[str, str] | None:
        counts = {u: 0 for u in range(cfg.units)}
        for name in leaf_names:
            local = locals_.get(name)
            if not isinstance(local, LeafLocal):
                continue
            for u in local.owned:
                counts[u] = counts.get(u, 0) + 1
            for u in local.completed:
                counts[u] = counts.get(u, 0) + 1
        for (_, dst), msgs in channels.items():
            if dst not in leaf_names:
                continue
            for msg in msgs:
                if msg.tag != "sc.units":
                    continue
                payload = msg.payload
                assert isinstance(payload, tuple)
                for u in payload:
                    counts[int(u)] = counts.get(int(u), 0) + 1
        lost = sorted(u for u, c in counts.items() if c == 0)
        dup = sorted(u for u, c in counts.items() if c > 1)
        if dup:
            return (
                "RA702",
                f"unit(s) {dup} held by more than one leaf custodian",
            )
        if lost:
            return (
                "RA701",
                f"unit(s) {lost} have no custodian: dropped between "
                f"leaves despite the leaf-to-leaf custody rule",
            )
        return None

    return check


def _tombstoned(locals_: Mapping[str, Hashable]) -> frozenset[str]:
    """Quiescence ignores mailboxes of crashed subs and finished actors
    (a released process's undrained mail is discarded, not stuck)."""
    out = set(getattr(locals_[ROOT], "dead", frozenset()))
    for name, local in locals_.items():
        if name != ROOT and getattr(local, "phase", "") in (
            "done",
            "crashed",
        ):
            out.add(name)
    return frozenset(out)


def _terminal(
    cfg: HierConfig,
) -> "Callable[[Mapping[str, Hashable]], bool]":
    def done(locals_: Mapping[str, Hashable]) -> bool:
        for name, local in locals_.items():
            phase = getattr(local, "phase", "")
            if name == ROOT:
                if phase != "final":
                    return False
            elif phase not in ("done", "crashed"):
                return False
        return True

    return done


def build_model(
    cfg: HierConfig | None = None, mutation: str | None = None
) -> Model:
    """Build the hierarchical-plane model for one configuration."""
    cfg = cfg or HierConfig()
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        cfg = HierConfig(
            n_subs=cfg.n_subs,
            units=cfg.units,
            moves=cfg.moves,
            crashable=cfg.crashable,
            mutation=mutation,
        )
    name = (
        f"hier-s{cfg.n_subs}-u{cfg.units}-m{cfg.moves}"
        f"-x{len(cfg.crashable)}"
    )
    if cfg.mutation:
        name += f"!{cfg.mutation}"
    actors: list[object] = [HierRoot(cfg)]
    actors += [HierSub(n, cfg) for n in cfg.sub_names()]
    actors += [
        HierLeaf(n, cfg, i) for i, n in enumerate(cfg.leaf_names())
    ]
    return Model(
        name=name,
        plane="hier",
        actors=actors,  # type: ignore[arg-type]
        invariants=[leaf_conservation(cfg)],
        terminal=_terminal(cfg),
        dead_of=_tombstoned,
        notes=(
            "one leaf per sub-master; event-driven reports in place of "
            "timers; accurate failure detector; leaf re-issue is "
            "runtime-only"
        ),
    )
