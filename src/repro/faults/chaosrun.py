"""Picklable chaos-matrix cells for orchestrated fan-out.

``repro chaos`` submits one job per application to
:func:`repro.orchestrator.submit_sweep`; each job runs that app's
fault-free baseline once and then every fault-plan cell against it,
returning plain JSON-safe cell dicts.  Keeping baseline + cells inside
one job preserves the original semantics (one baseline run per app) and
makes the job deterministic in its parameters — which is what lets the
orchestrator's content-hash cache serve repeated chaos cells for free.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..config import CheckpointConfig, ClusterSpec, RunConfig

__all__ = ["chaos_app_cells", "chaos_bag_cells"]


def _results_match(a: object, b: object, exact: bool = True) -> bool:
    """Deep bit-identity (``exact``) or numerical closeness between two
    run results (dicts/arrays/None)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _results_match(a[k], b[k], exact) for k in a
        )
    if a is None or b is None:
        return a is b
    x, y = np.asarray(a), np.asarray(b)
    return bool(np.array_equal(x, y) if exact else np.allclose(x, y))


def _build_plan(app: str, n: int, n_slaves: int) -> Any:
    from ..apps import REGISTRY

    return REGISTRY[app](n=n, n_slaves_hint=n_slaves)


def chaos_app_cells(
    app: str,
    plans: list[str],
    n: int,
    slaves: int,
    seed: int,
    fault_seed: int,
    ckpt: bool = False,
    ckpt_interval: float | None = None,
    ckpt_placement: str | None = None,
    reports_dir: str | None = None,
) -> list[dict[str, Any]]:
    """One app's row of the central chaos matrix (baseline + each plan).

    Message-only plans must leave results bit-identical to the fault-free
    baseline; crash plans must recover (or be legitimately lost when the
    effective configuration cannot recover).  Cell dicts match the
    historical ``repro chaos`` output schema exactly.
    """
    from ..errors import SlaveLostError
    from ..faults import load_plan
    from ..obs import Recorder
    from ..runtime import run_application
    from ..runtime.launcher import resolve_run_cfg
    from ..runtime.master import can_recover

    defaults = CheckpointConfig()
    plan = _build_plan(app, n, slaves)
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=slaves),
        ckpt=CheckpointConfig(
            enabled=ckpt,
            interval=ckpt_interval if ckpt_interval is not None else defaults.interval,
            placement=ckpt_placement or defaults.placement,
        ),
    )
    base = run_application(plan, cfg, seed=seed)
    base_result = base.result
    if reports_dir is not None:
        os.makedirs(reports_dir, exist_ok=True)
    cells: list[dict[str, Any]] = []
    for pname in plans:
        fault_plan = load_plan(pname, seed=fault_seed)
        if fault_plan.needs_horizon:
            fault_plan = fault_plan.resolved(base.elapsed)
        recorder = Recorder() if reports_dir is not None else None
        cell: dict[str, Any] = {"app": app, "plan": pname}
        has_crash = bool(fault_plan.crashes)
        recoverable = can_recover(plan, resolve_run_cfg(cfg, plan, fault_plan))
        try:
            res = run_application(
                plan, cfg, seed=seed, faults=fault_plan, recorder=recorder
            )
        except SlaveLostError as exc:
            if has_crash and not recoverable:
                cell["outcome"] = "lost-expected"
                cell["detail"] = str(exc)
            else:
                cell["outcome"] = "FAILED"
                cell["detail"] = f"unexpected SlaveLostError: {exc}"
        else:
            identical = _results_match(res.result, base_result)
            cell["bit_identical"] = identical
            cell["retransmits"] = res.retransmits
            cell["messages_lost"] = res.messages_lost
            cell["dead_pids"] = list(res.dead_pids)
            cell["elapsed"] = res.elapsed
            cell["rollbacks"] = res.log.rollbacks
            cell["units_restored"] = res.log.units_restored
            cell["ckpt_epochs_committed"] = res.log.ckpt_epochs_committed
            cell["ckpt_snapshots"] = res.log.ckpt_snapshots
            if identical:
                cell["outcome"] = "recovered" if res.dead_pids else "identical"
            else:
                cell["outcome"] = "FAILED"
                cell["detail"] = "results diverged from fault-free baseline"
            if recorder is not None and reports_dir is not None:
                res.make_report().save(
                    os.path.join(reports_dir, f"{app}-{pname}.json")
                )
        cells.append(cell)
    return cells


def chaos_bag_cells(
    app: str,
    control: str,
    n: int,
    slaves: int,
    seed: int,
    fanout: int = 4,
) -> dict[str, Any]:
    """One app's row of the bag-plane crash matrix under ``control``
    (``hier`` with sub-master ``fanout``, ``stealing`` or ``rdlb``).

    ``hier`` crashes the first and last level-1 sub-masters and the
    first and last leaves (at 40% and 60% of the fault-free horizon);
    the others an early worker (25%) and the last worker (60%).  A cell
    is ``recovered`` when no unit is lost, the crash was seen (and a
    sub-master's shard re-parented) and the result matches the
    baseline: bit for bit under ``hier``, numerically under the others,
    whose merge order follows the unit-to-worker assignment.  Anything
    else is ``FAILED``.  ``skipped`` names the loop shape of an app that
    is not a bag of independent units.
    """
    from ..compiler.plan import LoopShape
    from ..errors import SimulationError
    from ..faults import FaultPlan, SlaveCrash
    from ..scale import build_tree, run_hierarchical
    from ..strategies import run_strategy

    plan = _build_plan(app, n, slaves)
    row: dict[str, Any] = {"app": app, "control": control, "skipped": None}
    if plan.shape is not LoopShape.PARALLEL_MAP:
        return {**row, "skipped": plan.shape.name, "cells": []}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=slaves))

    def run(faults: Any = None) -> Any:
        if control == "hier":
            return run_hierarchical(plan, cfg, fanout=fanout, seed=seed, faults=faults)
        return run_strategy(control, plan, cfg, seed=seed, faults=faults)

    base = run()
    if control == "hier":
        internal = build_tree(slaves, fanout).internal
        targets = [
            ("first-submaster", internal[0], 0.4),
            ("last-submaster", internal[-1], 0.6),
            ("first-leaf", 0, 0.4),
            ("last-leaf", slaves - 1, 0.6),
        ]
    else:
        # Worker pids are 0..slaves-1; the coordinator sits at pid ==
        # slaves and cannot be faulted.
        targets = [
            ("early-crash", 1 % slaves, 0.25),
            ("late-crash", slaves - 1, 0.6),
        ]
    cells: list[dict[str, Any]] = []
    for label, pid, frac in targets:
        faults = FaultPlan(
            name=f"{control}-{label}",
            crashes=(SlaveCrash(pid=pid, at=frac * base.elapsed),),
        )
        cell: dict[str, Any] = {
            "app": app,
            "control": control,
            "plan": faults.name,
            "crash_pid": pid,
        }
        cells.append(cell)
        try:
            res = run(faults)
        except SimulationError as exc:
            cell["outcome"] = "FAILED"
            cell["detail"] = f"simulation did not terminate cleanly: {exc}"
            continue
        reparents = getattr(res, "reparents", 0)  # a HierarchyResult
        cell.update(
            deaths=res.deaths,
            reparents=reparents,
            dead_pids=list(res.dead_pids),
            lost_units=res.lost_units,
            elapsed=res.elapsed,
            result_matches_baseline=_results_match(
                res.result, base.result, exact=control == "hier"
            ),
        )
        if res.lost_units:
            cell["detail"] = f"{res.lost_units} unit(s) lost"
        elif res.deaths < 1:
            cell["detail"] = "crash did not land before the run finished"
        elif "submaster" in label and reparents < 1:
            cell["detail"] = "sub-master crash re-parented no shard"
        elif not cell["result_matches_baseline"]:
            cell["detail"] = "results diverged from fault-free baseline"
        cell["outcome"] = "FAILED" if "detail" in cell else "recovered"
    return {**row, "cells": cells}
