"""Strategy-layer contract tests.

Every PARALLEL_MAP strategy must produce the exact sequential result,
recover from a crashed worker (work stealing's steal/deny/abort
protocol must never hang, and no plane may lose a unit),
never declare a slow but live worker dead, and reject plan shapes and
fault kinds it cannot handle.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import REGISTRY, build_matmul
from repro.config import ClusterSpec, RunConfig
from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    LinkPartition,
    MessageFault,
    SlaveCrash,
    SlaveStall,
)
from repro.sim import ConstantLoad
from repro.strategies import RdlbConfig, run_rdlb, run_strategy
from repro.strategies import registry
from repro.strategies.robustness import (
    cell_perturbation,
    oracle_makespan,
    perturbation_loads,
)
from repro.scale.workload import irregular_bag, synthetic_bag

SEED = 7
SLAVES = 4


def _plan(app="adaptive", n=32):
    return REGISTRY[app](n=n, n_slaves_hint=SLAVES)


def _truth(plan, seed=SEED):
    kernels = plan.kernels
    gs = kernels.make_global(np.random.default_rng(seed))
    return kernels.sequential(gs)


def _close(a, b):
    assert set(a) == set(b)
    return all(np.allclose(a[k], b[k]) for k in a)


PLANES = ["rate", "hier", "diffusion", "stealing", "rdlb"]


class TestNumericsMatchSequential:
    @pytest.mark.parametrize(
        "strategy",
        ["rate", "hier", "diffusion", "stealing", "rdlb", "fsc", "gss", "factoring"],
    )
    def test_adaptive_multi_rep(self, strategy):
        """reps=3 with data-dependent costs: every rep of every unit
        runs, and per-unit rep collapsing is exact for PARALLEL_MAP."""
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        out = run_strategy(strategy, plan, cfg, seed=SEED)
        assert out.lost_units == 0 and out.deaths == 0
        assert out.elapsed >= out.sequential_time / SLAVES
        assert _close(out.result, _truth(plan))

    @pytest.mark.parametrize("strategy", PLANES)
    def test_heavy_tailed_particle(self, strategy):
        plan = _plan("particle")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        out = run_strategy(strategy, plan, cfg, seed=SEED)
        assert out.elapsed >= out.sequential_time / SLAVES
        assert _close(out.result, _truth(plan))


class TestCrashTermination:
    def test_stealing_terminates_with_crashed_victim(self):
        """Crash the initial owner of a shard mid-run: the run must end
        (no hung Recv), report the death, and re-issue that worker's
        un-gathered units, so nothing is lost."""
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        base = run_strategy("stealing", plan, cfg, seed=SEED)
        faults = FaultPlan(
            name="victim-crash",
            crashes=(SlaveCrash(pid=0, at=0.3 * base.elapsed),),
        )
        out = run_strategy("stealing", plan, cfg, seed=SEED, faults=faults)
        assert out.dead_pids == (0,)
        assert out.deaths == 1
        assert out.lost_units == 0
        assert _close(out.result, _truth(plan))

    @pytest.mark.parametrize("strategy", ["rate", "hier"])
    def test_tree_recovers_leaf_crash(self, strategy):
        """The root re-issues a crashed leaf's un-gathered units to the
        live leaves: nothing is lost and the result is exact."""
        plan = _plan()
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES), max_virtual_time=60.0)
        base = run_strategy(strategy, plan, cfg, seed=SEED)
        faults = FaultPlan(name="leaf-crash", crashes=(SlaveCrash(pid=1, at=0.01),))
        out = run_strategy(strategy, plan, cfg, seed=SEED, faults=faults)
        assert out.dead_pids == (1,) and out.deaths == 1
        assert out.lost_units == 0
        assert set(out.result) == set(base.result)
        for key in base.result:
            np.testing.assert_array_equal(out.result[key], base.result[key])

    def test_rdlb_reassigns_dead_workers_chunks(self):
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        base = run_strategy("rdlb", plan, cfg, seed=SEED)
        faults = FaultPlan(
            name="holder-crash",
            crashes=(SlaveCrash(pid=1, at=0.25 * base.elapsed),),
        )
        out = run_strategy("rdlb", plan, cfg, seed=SEED, faults=faults)
        assert out.dead_pids == (1,)
        assert out.lost_units == 0
        assert _close(out.result, _truth(plan))


class TestNoFalseDeaths:
    """Workers whose chunks or units run long are slow, not dead."""

    #: Chunk counts of the four chunkings at MM n=500, P=4.
    SECTION6_CHUNKS = {"fsc": 63, "gss": 20, "factoring": 28, "trapezoid": 15}

    @pytest.mark.parametrize("loaded", [False, True], ids=["dedicated", "loaded"])
    @pytest.mark.parametrize(
        "strategy", ["fsc", "gss", "factoring", "trapezoid", "rdlb"]
    )
    def test_section6_point_completes(self, strategy, loaded):
        """Paper Section 6: MM n=500 on 4 slaves, optionally with one
        competing task on slave 0.  Every chunk outlasts seconds of
        wall-clock silence (GSS's first chunk on the loaded slave takes
        125 s), and every unit must still complete."""
        plan = build_matmul(n=500, n_slaves_hint=4)
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=4), execute_numerics=False)
        loads = {0: ConstantLoad(k=1)} if loaded else {}
        out = run_strategy(strategy, plan, cfg, loads)
        assert out.raw.completed_units == 500
        assert out.lost_units == 0 and out.deaths == 0
        if strategy in self.SECTION6_CHUNKS:
            assert out.raw.chunks_served == self.SECTION6_CHUNKS[strategy]

    @pytest.mark.parametrize("strategy", ["stealing", "rdlb"])
    def test_fault_free_heavy_tail(self, strategy):
        """The perturbation-robustness lognormal x flat cell (P=16, 256
        units): hot units outlast seconds, yet nothing dies or is lost."""
        bag = irregular_bag(
            256, 2.0e5, tail="lognormal", sigma=1.4, seed=0,
            name="lognormal-256",
        )
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=16), execute_numerics=False)
        out = run_strategy(strategy, bag, cfg, seed=0)
        assert out.deaths == 0 and out.lost_units == 0

    @pytest.mark.parametrize("strategy", ["gss", "rdlb"])
    def test_long_stall_is_waited_out(self, strategy):
        """A worker frozen for 10 s mid-chunk resumes and is not dead:
        its chunk is either returned late or finished by a reissue."""
        plan = _plan("adaptive")
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        base = run_strategy(strategy, plan, cfg, seed=SEED)
        faults = FaultPlan(
            name="long-stall",
            stalls=(SlaveStall(pid=1, duration=10.0, at=0.25 * base.elapsed),),
        )
        out = run_strategy(strategy, plan, cfg, seed=SEED, faults=faults)
        assert out.deaths == 0 and out.lost_units == 0
        assert out.elapsed > 10.0
        assert _close(out.result, _truth(plan))


class TestFaultKindGuards:
    @pytest.mark.parametrize(
        "faults",
        [
            FaultPlan(name="drops", message_faults=(MessageFault("drop", 0.1),)),
            FaultPlan(
                name="cut", partitions=(LinkPartition(pid=0, t_start=0.0, t_end=1.0),)
            ),
        ],
        ids=["message-faults", "partitions"],
    )
    def test_rdlb_rejects_unsupported_fault_kinds(self, faults):
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        with pytest.raises(ConfigError, match="crashes and stalls"):
            run_rdlb(_plan(), cfg, faults=faults)

    def test_diffusion_rejects_faults(self):
        faults = FaultPlan(name="crash", crashes=(SlaveCrash(pid=1, at=0.01),))
        with pytest.raises(ConfigError, match="no fault hooks"):
            run_strategy("diffusion", _plan(), RunConfig(), faults=faults)


class TestRegistry:
    def test_chunking_strategies_keep_the_callers_config(self, monkeypatch):
        """The classic chunkings override chunking and dup_max only."""
        seen = []

        def fake_run_rdlb(plan, run_cfg, loads, *, rdlb, **kw):
            seen.append(rdlb)

        monkeypatch.setattr(registry, "run_rdlb", fake_run_rdlb)
        monkeypatch.setattr(registry, "_wrap", lambda *args: None)
        base = RdlbConfig(
            chunk=3, dup_max=3, reassign_after=1.5, retry_wait=0.05, tick=0.01
        )
        run_strategy("gss", _plan(), RunConfig(), rdlb=base)
        assert seen == [dataclasses.replace(base, chunking="gss", dup_max=1)]


class TestPlanShapeGuards:
    @pytest.mark.parametrize("strategy", PLANES)
    def test_dynamic_reps_rejected(self, strategy):
        bag = dataclasses.replace(
            synthetic_bag(16, 1e4), dynamic_reps=True
        )
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=SLAVES), execute_numerics=False
        )
        with pytest.raises(ConfigError):
            run_strategy(strategy, bag, cfg, seed=SEED)

    @pytest.mark.parametrize("strategy", PLANES)
    def test_load_on_non_worker_rejected(self, strategy):
        """Competing load may sit on workers only, not on the master."""
        cfg = RunConfig(cluster=ClusterSpec(n_slaves=SLAVES))
        loads = {SLAVES: ConstantLoad(k=1)}
        with pytest.raises(ConfigError, match="non-worker"):
            run_strategy(strategy, _plan(), cfg, loads, seed=SEED)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            run_strategy("nope", _plan(), RunConfig())


class TestRobustnessHarness:
    def test_perturbation_loads_validation(self):
        with pytest.raises(ConfigError):
            perturbation_loads("nonsense", 4)

    def test_spike_regime_only_hits_every_fourth_worker(self):
        loads = perturbation_loads("spike", 8)
        assert set(loads) == {0, 4}

    def test_oracle_bounds_every_strategy(self):
        """No strategy can beat the oracle's perfect-knowledge makespan."""
        cell = cell_perturbation(
            workload="lognormal",
            regime="spike",
            P=4,
            units_per_worker=8,
            strategies=("rate", "stealing", "rdlb"),
        )
        oracle = cell["meta"]["oracle_makespan"]
        assert oracle > 0
        for strategy, makespan in cell["meta"]["makespans"].items():
            assert makespan >= 0.99 * oracle, strategy
        assert cell["meta"]["winner"] in cell["meta"]["makespans"]

    def test_oracle_matches_closed_form_on_flat_loads(self):
        # No competing load: makespan is total_ops / (P * speed).
        assert oracle_makespan(4e6, 1e6, {}, 4) == pytest.approx(1.0)
