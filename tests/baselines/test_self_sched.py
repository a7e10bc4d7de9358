"""Self-scheduling baseline tests.

The Section 6 self-scheduling family (chunk, guided, factoring,
trapezoid) runs through the strategy layer's robust self-scheduling
plane; its chunk policies live in :mod:`repro.strategies.rdlb`.
"""

import numpy as np
import pytest

from repro.apps import build_lu, build_matmul
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.errors import ConfigError, ProtocolError
from repro.sim import ConstantLoad
from repro.strategies import RdlbConfig, run_strategy
from repro.strategies.rdlb import (
    ChunkPolicy,
    FactoringPolicy,
    GuidedPolicy,
    TrapezoidPolicy,
)


class TestPolicies:
    def test_chunk_fixed_size(self):
        p = ChunkPolicy(8)
        assert p.next_chunk(100, 4) == 8
        assert p.next_chunk(5, 4) == 5

    def test_chunk_validation(self):
        with pytest.raises(ProtocolError):
            ChunkPolicy(0)

    def test_guided_halves_per_round(self):
        p = GuidedPolicy()
        assert p.next_chunk(100, 4) == 25
        assert p.next_chunk(75, 4) == 19
        assert p.next_chunk(1, 4) == 1

    def test_factoring_batches(self):
        p = FactoringPolicy()
        # First batch: ceil(100 / 8) = 13 for each of 4 requests.
        sizes = [p.next_chunk(100 - 13 * i, 4) for i in range(4)]
        assert sizes == [13, 13, 13, 13]
        # Next batch re-derives from what remains.
        assert p.next_chunk(48, 4) == 6

    def test_trapezoid_decreasing(self):
        p = TrapezoidPolicy(total=100, n_slaves=4)
        sizes = []
        remaining = 100
        while remaining > 0:
            c = p.next_chunk(remaining, 4)
            sizes.append(c)
            remaining -= c
        assert sum(sizes) == 100
        assert sizes[0] >= sizes[-1]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestRuns:
    def _cfg(self, numerics=False, n_slaves=3, speed=2e5):
        return RunConfig(
            cluster=ClusterSpec(
                n_slaves=n_slaves, processor=ProcessorSpec(speed=speed)
            ),
            execute_numerics=numerics,
        )

    @pytest.mark.parametrize(
        "run",
        [
            lambda plan, cfg: run_strategy(
                "fsc", plan, cfg, rdlb=RdlbConfig(chunk=4), seed=2
            ),
            lambda plan, cfg: run_strategy("gss", plan, cfg, seed=2),
            lambda plan, cfg: run_strategy("factoring", plan, cfg, seed=2),
            lambda plan, cfg: run_strategy("trapezoid", plan, cfg, seed=2),
        ],
    )
    def test_numerics_correct(self, run):
        plan = build_matmul(n=50)
        res = run(plan, self._cfg(numerics=True))
        g = plan.kernels.make_global(np.random.default_rng(2))
        np.testing.assert_allclose(res.result, g["A"] @ g["B"], atol=1e-9)

    def test_all_chunks_served(self):
        plan = build_matmul(n=64)
        res = run_strategy("fsc", plan, self._cfg(), seed=1)
        assert res.raw.chunks_served == 8

    def test_load_balances_naturally(self):
        plan = build_matmul(n=120)
        cfg = self._cfg()
        loaded = {0: ConstantLoad(k=3)}
        res = run_strategy("factoring", plan, cfg, loaded)
        # Demand-driven chunking absorbs the slow node: time well under
        # the static worst case (slave 0 at 1/4 speed with 1/3 of work).
        static_worst = plan.total_ops() / 3 * 4 / 2e5
        assert res.elapsed < static_worst

    def test_metrics_fields(self):
        plan = build_matmul(n=30)
        res = run_strategy("gss", plan, self._cfg())
        assert res.strategy == "gss" and res.raw.chunking == "gss"
        assert res.speedup > 0
        assert 0 < res.raw.efficiency <= 1.1
        assert res.message_count > 0

    def test_non_parallel_map_rejected(self):
        with pytest.raises(ConfigError):
            run_strategy("gss", build_lu(n=20), self._cfg())
