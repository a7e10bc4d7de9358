"""End-to-end benchmark of whole DLB runs.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper_dlb --seed 1 --seconds 35 --trace 0

Runs the workload's cases (see ``workloads.py``) in whole rounds, in
this one process, until ``--seconds`` have passed and at least
``MIN_RUNS`` runs were made, checks every run's outputs, and prints one
line per metric (``name = value unit``) followed by a last line holding
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` measures the end-to-end metrics with tracing
off.  ``--trace 1`` alternates untraced and traced rounds on the same
inputs and reports the per-layer metrics (see ``tracer.py``); every
traced run must reproduce its untraced twin's simulated outcome.

The end-to-end times are host times corrected for the host's speed: a
fixed probe (``hostspeed.py``) is timed before the first run and after
every run, and each run's wall is divided by the probe's slowdown around
it, giving seconds on the nominal host.  The raw host times are printed
too.

A run that raises or breaks an invariant is a failed run: it is named in
the output and counted, and the benchmark goes on.  ``correct`` is false
when a failure is not one of the known defects listed in
``workloads.KNOWN_DEFECTS``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
# Set-up time of a fresh process: importing the program and building the
# workload's plans, bags and loads; then the host-speed factor of the
# same process.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
setup_s = time.perf_counter() - t0
import hostspeed
host = hostspeed.HostSpeed()
for _ in range(5):
    host.sample()
print(setup_s, host.factor())
"""
MIN_RUNS = 11  # the tail percentile needs ten samples beyond it

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_wall_p50_s": "s",
    "run_wall_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_efficiency": "ratio",
    "runs_verified_ratio": "ratio",
}

SYSCALL_KINDS = ("Compute", "Send", "Recv", "Poll", "Sleep")
STEP_LAYERS = ("runtime.master", "runtime.slave", "scale", "baselines", "strategies")

PER_LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.syscalls.compute": "count",
    "sim.syscalls.send": "count",
    "sim.syscalls.recv": "count",
    "sim.syscalls.poll": "count",
    "sim.syscalls.sleep": "count",
    "sim.poll_hit_ratio": "ratio",
    "sim.messages": "count",
    "sim.bytes": "B",
    "runtime.master.self_s": "s",
    "runtime.master.steps": "count",
    "runtime.slave.self_s": "s",
    "runtime.slave.steps": "count",
    "runtime.partition.self_s": "s",
    "runtime.balancer.decide_s": "s",
    "runtime.balancer.decisions": "count",
    "runtime.balancer.move_ratio": "ratio",
    "runtime.reports": "count",
    "runtime.moves": "count",
    "runtime.units_moved": "count",
    "scale.self_s": "s",
    "scale.steps": "count",
    "baselines.self_s": "s",
    "baselines.steps": "count",
    "strategies.self_s": "s",
    "strategies.steps": "count",
    "strategies.lost_units": "count",
    "strategies.false_deaths": "count",
    "strategies.steal_hit_ratio": "ratio",
    "apps.kernel_s": "s",
    "apps.kernel_calls": "count",
    "compiler.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Runs:
    """Walls and check results of the runs of one measurement."""

    walls: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    rounds: int = 0
    verified: int = 0
    efficiencies: list[float] = field(default_factory=list)
    failures: Counter[tuple[str, str]] = field(default_factory=Counter)
    examples: dict[tuple[str, str], str] = field(default_factory=dict)
    unknown_failures: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return self.attempted - self.verified


def timed_run(
    wl: Any, case: Any, runs: Runs, plan: Any = None, twin: Any = None
) -> Any:
    """Run ``case`` once, time it, check it and record it in ``runs``.

    ``twin`` is the untraced result a traced run must reproduce.
    Returns the run's result, or None when it raised.
    """
    runs.labels.append(case.label)
    t0 = time.perf_counter()
    try:
        res = wl.run(case, plan)
    except Exception as exc:  # a failed run, never a benchmark crash
        runs.walls.append(time.perf_counter() - t0)
        record(case, [("raised", f"{type(exc).__name__}: {exc}")], runs)
        return None
    runs.walls.append(time.perf_counter() - t0)
    problems = wl.check(case, res)
    if twin is not None and wl.fingerprint(case, res) != wl.fingerprint(case, twin):
        problems.append(("trace_mismatch", "traced outcome differs from untraced"))
    record(case, problems, runs)
    if not problems:
        eff = wl.efficiency(case, res)
        if eff is not None:
            runs.efficiencies.append(eff)
    return res


def record(case: Any, problems: list[tuple[str, str]], runs: Runs) -> None:
    if not problems:
        runs.verified += 1
        return
    for kind, detail in problems:
        runs.failures[(case.label, kind)] += 1
        runs.examples.setdefault((case.label, kind), detail)
    if any(kind not in case.known_defects for kind, _ in problems):
        runs.unknown_failures += 1


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, beyond)``.  Measurements take at least
    ``MIN_RUNS`` samples, so the percentile exists.
    """
    ordered = sorted(walls)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"need at least {MIN_RUNS} samples, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def case_medians(labels: list[str], walls: list[float]) -> list[float]:
    """Each case's median run wall."""
    by_case: dict[str, list[float]] = {}
    for label, wall in zip(labels, walls):
        by_case.setdefault(label, []).append(wall)
    return [statistics.median(w) for w in by_case.values()]


def end_to_end(
    runs: Runs, setup_s: float, speeds: list[float] | None = None
) -> dict[str, float]:
    """End-to-end metrics; each run's wall is divided by its host-speed
    factor in ``speeds`` (none: raw host time).

    A round's cases differ in wall by up to 20x, so medians over all
    runs would jump between cases as their mix shifts.  The throughput
    and the typical wall therefore take each case's median first.
    """
    walls = runs.walls if speeds is None else [w / f for w, f in zip(runs.walls, speeds)]
    medians = case_medians(runs.labels, walls)
    tail_s, _, _ = tail(walls)
    return {
        "runs_per_s": runs.verified / runs.rounds / sum(medians),
        "run_wall_p50_s": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "run_wall_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_efficiency": statistics.fmean(runs.efficiencies) if runs.efficiencies else 0.0,
        "runs_verified_ratio": runs.verified / runs.attempted,
    }


def measure(wl: Any, rounds: list[list[Any]], seconds: float, host: Any) -> Runs:
    """Untraced closed loop: whole rounds of every case until ``seconds``
    have passed and at least ``MIN_RUNS`` runs were made.  The host-speed
    probe ``host`` is sampled before the first run and after every run."""
    runs = Runs()
    host.sample()
    t0 = time.perf_counter()
    while runs.attempted < MIN_RUNS or time.perf_counter() - t0 < seconds:
        for case in rounds[runs.rounds % len(rounds)]:
            timed_run(wl, case, runs)
            host.sample()
        runs.rounds += 1
    return runs


def measure_traced(wl: Any, tracer_mod: Any, rounds: list[list[Any]], seconds: float):
    """Alternate untraced and traced rounds on the same inputs.

    Returns the untraced runs, the traced runs, the tracer, per-round
    sums of the counters read from run results, and the round count.
    """
    untraced, traced = Runs(), Runs()
    tracer = tracer_mod.Tracer()
    sums: Counter[str] = Counter()
    n = 0
    t0 = time.perf_counter()
    while n == 0 or time.perf_counter() - t0 < seconds:
        cases = rounds[n % len(rounds)]
        twins = [timed_run(wl, case, untraced) for case in cases]
        with tracer.installed():
            for case, twin in zip(cases, twins):
                plan = tracer.wrap_kernels(tracer.span("compiler", case.build))
                res = timed_run(wl, case, traced, plan, twin)
                if res is not None:
                    add_counters(case, res, sums)
        n += 1
    return untraced, traced, tracer, sums, n


def add_counters(case: Any, res: Any, sums: Counter[str]) -> None:
    sums["messages"] += res.message_count
    sums["bytes"] += res.bytes_sent
    if case.strategy is None:
        log = res.log
        sums["reports"] += log.reports_received
        sums["moves"] += log.moves_applied
        sums["units_moved"] += log.units_moved
        sums["decisions"] += len(log.decisions)
        sums["moving_decisions"] += sum(1 for d in log.decisions if d.moves_work)
        return
    sums["lost_units"] += res.lost_units
    sums["deaths"] += res.deaths
    if case.strategy == "stealing":
        sums["steals"] += res.raw.steals
        sums["steal_hits"] += res.raw.steal_hits


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Any, sums: Counter[str], n_rounds: int, overhead: float
) -> dict[str, float]:
    """Per-layer metrics, per round of cases."""
    sim_run_s = tracer.total_s["sim"]
    m = {
        "sim.self_s": tracer.self_s["sim"] / n_rounds,
        "sim.events": tracer.events / n_rounds,
        "sim.events_per_s": _ratio(tracer.events, sim_run_s),
        **{
            f"sim.syscalls.{k.lower()}": tracer.syscalls[k] / n_rounds
            for k in SYSCALL_KINDS
        },
        "sim.poll_hit_ratio": _ratio(tracer.poll_hits, tracer.syscalls["Poll"]),
        "sim.messages": sums["messages"] / n_rounds,
        "sim.bytes": sums["bytes"] / n_rounds,
        "runtime.partition.self_s": tracer.self_s["runtime.partition"] / n_rounds,
        "runtime.balancer.decide_s": tracer.self_s["runtime.balancer"] / n_rounds,
        "runtime.balancer.decisions": sums["decisions"] / n_rounds,
        "runtime.balancer.move_ratio": _ratio(sums["moving_decisions"], sums["decisions"]),
        "runtime.reports": sums["reports"] / n_rounds,
        "runtime.moves": sums["moves"] / n_rounds,
        "runtime.units_moved": sums["units_moved"] / n_rounds,
        "strategies.lost_units": sums["lost_units"] / n_rounds,
        "strategies.false_deaths": sums["deaths"] / n_rounds,
        "strategies.steal_hit_ratio": _ratio(sums["steal_hits"], sums["steals"]),
        "apps.kernel_s": tracer.self_s["apps"] / n_rounds,
        "apps.kernel_calls": tracer.calls["apps"] / n_rounds,
        "compiler.build_s": tracer.self_s["compiler"] / n_rounds,
        "trace.overhead_ratio": overhead,
    }
    for layer in STEP_LAYERS:
        m[f"{layer}.self_s"] = tracer.self_s[layer] / n_rounds
        m[f"{layer}.steps"] = tracer.calls[layer] / n_rounds
    return {name: m[name] for name in PER_LAYER_UNITS}


def layer_shares(tracer: Any) -> dict[str, float]:
    """Share of traced self time per top-level layer."""
    groups: Counter[str] = Counter()
    for layer, s in tracer.self_s.items():
        groups[layer.split(".")[0]] += s
    total = sum(groups.values())
    return {g: s / total for g, s in groups.most_common()} if total else {}


def print_failures(runs: Runs, tag: str = "") -> None:
    for (label, kind), n in sorted(runs.failures.items()):
        example = runs.examples[(label, kind)]
        print(f"FAILED {tag}{label}: {kind} in {n} runs, e.g. {example}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of ``SETUP_REPEATS`` fresh processes, each
    divided by its own process's host-speed factor."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        setup_s, speed = map(float, probe.stdout.split())
        times.append(setup_s / speed)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        ap.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    try:
        import hostspeed
        import tracer as tracer_mod
        import workloads as wl
    except ImportError as exc:
        print(f"e2ebench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")

    rounds = wl.build(args.workload, args.seed)
    wl.attach_references(rounds)  # once, outside every metric

    print(
        f"workload {args.workload}, seed {args.seed}: {len(rounds[0])} cases "
        f"per round, {len(rounds)} distinct rounds"
    )
    if args.trace:
        untraced, traced, tracer, sums, n = measure_traced(
            wl, tracer_mod, rounds, args.seconds
        )
        overhead = statistics.median(
            t / u for t, u in zip(traced.walls, untraced.walls)
        )
        metrics = per_layer(tracer, sums, n, overhead)
        units = PER_LAYER_UNITS
        measured = {"untraced ": untraced, "traced ": traced}
        print(f"{n} rounds untraced and traced")
        print(
            "self-time shares: "
            + ", ".join(f"{g} {s:.1%}" for g, s in layer_shares(tracer).items())
        )
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        host = hostspeed.HostSpeed()
        runs = measure(wl, rounds, args.seconds, host)
        speeds = host.factors()
        metrics = end_to_end(runs, setup_s, speeds)
        units = END_TO_END_UNITS
        measured = {"": runs}
        raw = end_to_end(runs, setup_s)
        _, pct, beyond = tail(runs.walls)
        print(
            f"{runs.rounds} rounds, {runs.attempted} runs; run_wall_tail_s is "
            f"p{pct:.1f} of {runs.attempted} runs ({beyond} beyond it)"
        )
        print(
            f"host-speed factor median {statistics.median(speeds):.4f}, "
            f"range {min(speeds):.4f}-{max(speeds):.4f} (probe medians "
            + ", ".join(
                f"{part} {statistics.median(t) * 1e3:.2f} ms"
                for part, t in host.samples.items()
            )
            + "); raw host times: "
            + ", ".join(
                f"{name} {raw[name]:.6g} {END_TO_END_UNITS[name]}"
                for name in ("runs_per_s", "run_wall_p50_s", "run_wall_tail_s")
            )
        )
        print(f"runs_failed_ratio = {runs.failed / runs.attempted:.4f} ratio")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for tag, runs in measured.items():
        print_failures(runs, tag)

    attempted = sum(r.attempted for r in measured.values())
    failed = sum(r.failed for r in measured.values())
    correct = all(r.unknown_failures == 0 for r in measured.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
