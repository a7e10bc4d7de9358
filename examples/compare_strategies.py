#!/usr/bin/env python
"""Compare the paper's DLB against related-work schedulers.

Runs 500x500 matrix multiplication (cost-simulated at the paper's
machine speed) on 4 slaves with one competing task on slave 0, under:

- static block distribution (no balancing),
- the paper's dynamic load balancer,
- central-queue self-scheduling: fixed chunks (fsc) / guided (gss) /
  factoring / trapezoid,
- near-neighbour diffusion balancing.

Watch the last column: the central queue ships every chunk's data from
the master, while the paper's design moves only the imbalance.
"""

from repro.apps import build_matmul
from repro.baselines import run_diffusion
from repro.config import ClusterSpec, RunConfig
from repro.runtime import run_application
from repro.sim import ConstantLoad
from repro.strategies import run_strategy


def main() -> None:
    n, n_slaves = 500, 4
    plan = build_matmul(n=n, n_slaves_hint=n_slaves)
    loads = {0: ConstantLoad(k=1)}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=n_slaves), execute_numerics=False)
    cfg_static = RunConfig(
        cluster=cfg.cluster, execute_numerics=False, dlb_enabled=False
    )

    print(f"{'strategy':<22} {'elapsed':>9} {'speedup':>8} {'eff':>6} {'msgs':>6} {'MB':>7}")

    def row(name, r):
        print(
            f"{name:<22} {r.elapsed:>8.1f}s {r.speedup:>8.2f} {r.efficiency:>6.3f} "
            f"{r.message_count:>6} {r.bytes_sent / 1e6:>7.2f}"
        )

    row("static blocks", run_application(plan, cfg_static, loads=loads))
    row("DLB (this paper)", run_application(plan, cfg, loads=loads))
    for strategy in ("fsc", "gss", "factoring", "trapezoid"):
        row(
            f"self-sched {strategy}",
            run_strategy(strategy, plan, cfg, loads).raw,
        )
    row("diffusion", run_diffusion(plan, cfg, loads=loads))


if __name__ == "__main__":
    main()
