"""Comparison schedulers from the paper's related work (Section 6).

- :mod:`diffusion` — receiver/sender-initiated near-neighbour diffusion
  balancing (Willebeek-LeMair & Reeves / gradient-model style), which
  uses only local information.

The central task-queue self-scheduling family (chunk, guided,
factoring, trapezoid) is served by the strategy layer:
``repro.strategies.run_strategy("fsc" | "gss" | "factoring" |
"trapezoid", ...)``.  On a distributed-memory cluster every chunk ships
its data, which is exactly the locality cost the paper's design avoids.

The paper's *static block distribution* baseline is the DLB runtime with
``RunConfig.dlb_enabled=False`` (hooks compiled in but disabled).
"""

from .diffusion import run_diffusion

__all__ = ["run_diffusion"]
