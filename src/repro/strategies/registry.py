"""Shared strategy interface: one entry point over every DLB plane.

:func:`run_strategy` normalizes the per-plane entry functions (their
configs, result types, and fault support differ) into a single callable
returning a :class:`StrategyOutcome`, which is what the CLI
(``repro run --strategy``), the perturbation-robustness bench, and the
chaos harness consume.  The classic self-scheduling
chunkings (FSC/GSS/factoring/trapezoid) are first-class strategies
served by the robust self-scheduling master with reassignment disabled
while the holder is alive (``dup_max=1``): a chunk is reissued only
when its holder crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..sim import LoadGenerator
from .bagplane import PlaneResult
from .rdlb import RdlbConfig, run_rdlb
from .stealing import StealingConfig, run_stealing

__all__ = [
    "STRATEGIES",
    "StrategyOutcome",
    "available_strategies",
    "refuse_faults",
    "run_strategy",
]

#: strategy name -> one-line description (shown by ``repro run --help``
#: and used for the matrix in docs/strategies.md).
STRATEGIES: dict[str, str] = {
    "rate": (
        "the paper's plane: centralized rate-filtered proportional "
        "redistribution (flat tree)"
    ),
    "hier": "the same protocol over a sub-master tree (fanout 8)",
    "diffusion": "decentralized near-neighbour exchange",
    "stealing": (
        "decentralized work stealing: steal-half, randomized victims, "
        "steal/deny/abort, coordinator-side termination detection"
    ),
    "rdlb": (
        "robust self-scheduling: central chunk queue with resilient "
        "chunk reassignment (factoring chunks, no rate filtering)"
    ),
    "fsc": "fixed-size chunk self-scheduling (CSS) on the rdlb master",
    "gss": "guided self-scheduling on the rdlb master",
    "factoring": "factoring self-scheduling on the rdlb master",
    "trapezoid": "trapezoid self-scheduling on the rdlb master",
}


def available_strategies() -> tuple[str, ...]:
    """Names accepted by :func:`run_strategy` and ``--strategy``."""
    return tuple(STRATEGIES)


@dataclass
class StrategyOutcome:
    """Normalized outcome of one strategy run.

    ``raw`` keeps the plane's :class:`~repro.strategies.bagplane.PlaneResult`
    (:class:`~repro.scale.hierarchy.HierarchyResult`,
    :class:`~repro.strategies.stealing.StealingResult`, ...) for callers
    that need plane-specific counters.
    """

    strategy: str
    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    message_count: int
    bytes_sent: int
    lost_units: int
    deaths: int
    dead_pids: tuple[int, ...]
    result: Any
    raw: Any

    @property
    def speedup(self) -> float:
        return self.raw.speedup

    def summary(self) -> str:
        lost = f" lost={self.lost_units}" if self.lost_units else ""
        deaths = f" deaths={self.deaths}" if self.deaths else ""
        return (
            f"{self.name} [{self.strategy}]: P={self.n_slaves} "
            f"elapsed={self.elapsed:.2f}s speedup={self.speedup:.2f} "
            f"msgs={self.message_count}{deaths}{lost}"
        )


def _wrap(strategy: str, res: PlaneResult) -> StrategyOutcome:
    return StrategyOutcome(
        strategy=strategy,
        name=res.name,
        n_slaves=res.n_slaves,
        elapsed=res.elapsed,
        sequential_time=res.sequential_time,
        message_count=res.message_count,
        bytes_sent=res.bytes_sent,
        lost_units=res.lost_units,
        deaths=res.deaths,
        dead_pids=res.dead_pids,
        result=res.result,
        raw=res,
    )


def refuse_faults(strategy: str, faults: FaultPlan) -> str | None:
    """Why the named strategy's plane refuses ``faults`` at entry, or
    None; asked without running anything."""
    if strategy in ("rate", "hier", "stealing"):
        return None
    if strategy == "diffusion":
        from ..baselines import diffusion as plane
    else:  # rdlb and the classic chunkings
        from . import rdlb as plane
    return plane.refuse_faults(faults)


def run_strategy(
    strategy: str,
    plan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
    stealing: StealingConfig | None = None,
    rdlb: RdlbConfig | None = None,
) -> StrategyOutcome:
    """Run ``plan`` under the named strategy and normalize the outcome.

    Each plane checks the fault plan at entry (:func:`refuse_faults`):
    ``diffusion`` has no fault hooks, ``rdlb`` (with the classic
    chunkings) accepts crashes and stalls, and ``rate``/``hier``/
    ``stealing`` accept every kind; a plan a plane cannot run is a
    :class:`ConfigError`.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; "
            f"choose from {', '.join(available_strategies())}"
        )
    run_cfg = run_cfg or RunConfig()
    common: dict[str, Any] = {"seed": seed, "recorder": recorder, "faults": faults}
    if strategy in ("rate", "hier"):
        from ..scale.hierarchy import run_hierarchical

        fanout = None if strategy == "rate" else 8
        res: PlaneResult = run_hierarchical(
            plan, run_cfg, loads, fanout=fanout, **common
        )
    elif strategy == "diffusion":
        from ..baselines.diffusion import run_diffusion

        res = run_diffusion(plan, run_cfg, loads, **common)
    elif strategy == "stealing":
        res = run_stealing(plan, run_cfg, loads, stealing=stealing, **common)
    else:
        # rdlb and the classic chunkings share the robust master;
        # the classics just disable alive-holder reassignment.
        rc = rdlb or RdlbConfig()
        if strategy != "rdlb":
            rc = replace(rc, chunking=strategy, dup_max=1)
        res = run_rdlb(plan, run_cfg, loads, rdlb=rc, **common)
    return _wrap(strategy, res)
