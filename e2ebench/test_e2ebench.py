"""Tests for the end-to-end benchmark.

Run from the repository root with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402
from repro.apps import build_lu  # noqa: E402
from repro.scale.workload import irregular_bag  # noqa: E402
from repro.sim import Cluster, ConstantLoad  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _lu_case(numerics: bool = True) -> wl.Case:
    def build():
        return build_lu(n=60, n_slaves_hint=4)

    case = wl.Case(
        label="lu60",
        build=build,
        plan=build(),
        cfg=wl._cfg(4, numerics),
        loads={0: ConstantLoad(k=1, start=0.5)},
        seed=3,
    )
    wl.attach_references([[case]])
    return case


def _plane_case(plane: str, n_workers: int = 16) -> wl.Case:
    # The perturbation-robustness cell at P=16, lognormal, flat: at the
    # commit that defined this benchmark, stealing loses 17 of 256 units.
    def build():
        return irregular_bag(16 * n_workers, 2.0e5, tail="lognormal", sigma=1.4, seed=0)

    return wl.Case(
        label=plane,
        build=build,
        plan=build(),
        cfg=wl._cfg(n_workers, numerics=False),
        loads={},
        seed=0,
        strategy=plane,
        known_defects=wl.KNOWN_DEFECTS.get(plane, frozenset()),
    )


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(
        wl.WORKLOADS, "tiny", lambda seed: [[_lu_case(), _plane_case("rate", 4)]]
    )
    # A fresh process cannot see the test's workload.
    monkeypatch.setattr(bench, "setup_seconds", lambda workload, seed: 0.5)
    return "tiny"


def _run_main(capsys, workload: str, trace: int) -> tuple[str, dict]:
    rc = bench.main(
        ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, tiny_workload, trace, section):
    out, result = _run_main(capsys, tiny_workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}")
            for line in out.splitlines()
        ), name


def test_doctored_reference_is_a_failed_run_not_a_crash():
    case = _lu_case()
    case.reference = case.reference.copy()
    case.reference.flat[0] += 1.0
    runs = bench.Runs()
    assert bench.timed_run(wl, case, runs) is not None
    assert (runs.attempted, runs.failed, runs.unknown_failures) == (1, 1, 1)
    assert list(runs.failures) == [("lu60", "numerics")]


def test_raising_run_is_a_failed_run(monkeypatch):
    case = _lu_case(numerics=False)

    def boom(*args, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl, "run", boom)
    runs = bench.Runs()
    assert bench.timed_run(wl, case, runs) is None
    assert (runs.attempted, runs.failed) == (1, 1)
    assert runs.examples == {("lu60", "raised"): "RuntimeError: boom"}


def test_lost_unit_stealing_run_is_a_failed_run():
    case = _plane_case("stealing")
    res = wl.run(case)
    kinds = {kind for kind, _ in wl.check(case, res)}
    assert ("lost_units" in kinds) == (res.lost_units > 0)
    runs = bench.Runs()
    bench.record(case, wl.check(case, dataclasses.replace(res, lost_units=17)), runs)
    assert runs.verified == 0 and runs.unknown_failures == 0
    assert runs.examples[("stealing", "lost_units")] == "lost 17 of 256 units"


def test_lost_units_on_a_plane_without_known_defect_are_unknown():
    case = _plane_case("rate")
    res = dataclasses.replace(wl.run(case), lost_units=3)
    runs = bench.Runs()
    bench.record(case, wl.check(case, res), runs)
    assert runs.unknown_failures == 1


@pytest.mark.parametrize(
    "make",
    [
        _lu_case,
        lambda: _plane_case("stealing", 8),
        lambda: _plane_case("diffusion", 8),
        lambda: _plane_case("hier", 8),
    ],
)
def test_traced_run_reproduces_untraced_outcome(make):
    case = make()
    untraced = wl.run(case)
    spawn = Cluster.spawn
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        plan = tracer.wrap_kernels(tracer.span("compiler", case.build))
        traced = wl.run(case, plan)
    assert Cluster.spawn is spawn
    assert wl.fingerprint(case, traced) == wl.fingerprint(case, untraced)
    assert tracer.events > 0 and tracer.self_s["sim"] > 0
    assert sum(tracer.syscalls.values()) > 0
    if case.strategy is None:
        assert tracer.calls["apps"] > 0 and tracer.calls["runtime.balancer"] > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    walls = [float(i) for i in range(1, 21)]
    assert bench.tail(walls) == (10.0, 50.0, 10)
    with pytest.raises(ValueError):
        bench.tail(walls[:10])


def test_same_seed_same_inputs():
    a, b, c = (wl.build("planes_p64", seed)[0][0].plan.costs for seed in (5, 5, 6))
    assert a == b and a != c and sorted(a) == sorted(c)
    assert np.isclose(np.mean(a), wl.PLANE_MEAN_OPS)


def test_host_speed_gives_one_factor_per_run(tiny_workload):
    rounds = wl.build(tiny_workload, 1)
    host = hostspeed.HostSpeed()
    runs = bench.measure(wl, rounds, 0.01, host)
    factors = host.factors()
    assert len(factors) == runs.attempted and all(f > 0 for f in factors)
    assert host.factor() > 0


def test_end_to_end_divides_each_wall_by_its_factor():
    runs = bench.Runs(
        walls=[1.0] * 11 + [4.0] * 11,
        labels=["a"] * 11 + ["b"] * 11,
        rounds=11,
        verified=22,
    )
    raw = bench.end_to_end(runs, 0.5)
    assert raw["run_wall_p50_s"] == pytest.approx(2.0)  # geometric mean of 1 and 4
    assert raw["runs_per_s"] == pytest.approx(2 / 5.0)
    assert raw["run_wall_tail_s"] == 4.0
    fast = bench.end_to_end(runs, 0.5, [2.0] * 22)
    assert fast["run_wall_p50_s"] == pytest.approx(1.0)
    assert fast["runs_per_s"] == pytest.approx(2 * raw["runs_per_s"])
    assert fast["setup_s"] == raw["setup_s"] == 0.5
