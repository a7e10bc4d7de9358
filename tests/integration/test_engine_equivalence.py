"""Single-core equivalence: observation and an idle injector are invisible.

The simulator has one event core and one syscall dispatch table; an
armed :class:`~repro.faults.FaultInjector` is a branch inside each
handler (stall clamping, sequence stamping, per-copy transmission and
receiver dedupe).  Two contracts are pinned here:

1. **Event-for-event equivalence** (property test): for randomized
   compute-segment staircases — mixed block sizes, zero-length
   segments, competing loads, and chatty rendezvous between blocks —
   a plain run, an observed run, and a run armed with an empty
   ``FaultPlan()`` produce the same clock, the same event count, the
   same task finish times, CPU accounting and message count.

2. **Fault plans keep results bit-identical** (regression): arming a
   message fault plan must leave the numerics equal to the fault-free
   run, and two runs under the same plan must agree exactly, observed
   or not, so fault-injected runs stay bit-identical to the
   message-fault goldens.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_matmul
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.faults import FaultInjector, FaultPlan, named_plan
from repro.obs import Recorder
from repro.runtime import run_application
from repro.sim import Cluster, Compute, ConstantLoad, Recv, Send

# ----------------------------------------------------------------------
# 1. Property: randomized staircases, plain == observed == armed-empty
# ----------------------------------------------------------------------

_SEGMENT = st.floats(
    min_value=0.0, max_value=3000.0, allow_nan=False, allow_infinity=False
)
_BLOCK = st.lists(_SEGMENT, min_size=0, max_size=10)
_ROUNDS = st.lists(st.tuples(_BLOCK, _BLOCK), min_size=1, max_size=4)


def _execute(rounds, chat, load, observe=False, armed=False):
    spec = ClusterSpec(n_slaves=2, processor=ProcessorSpec())
    loads = {1: ConstantLoad(k=1)} if load else None
    rec = Recorder() if observe else None
    injector = FaultInjector(FaultPlan(), spec.master_pid) if armed else None
    cluster = Cluster(spec, loads, rec, injector)

    def left(ctx):
        for block, _ in rounds:
            for ops in block:
                yield Compute(ops)
            if chat:
                yield Send(1, "x", None, 64)
                yield Recv(src=1, tag="y")

    def right(ctx):
        for _, block in rounds:
            for ops in block:
                yield Compute(ops)
            if chat:
                yield Recv(src=0, tag="x")
                yield Send(0, "y", None, 64)

    cluster.spawn(0, left)
    cluster.spawn(1, right)
    cluster.run()
    return (
        cluster.engine.now,
        cluster.engine.events_processed,
        cluster.task_finish_time(0),
        cluster.task_finish_time(1),
        tuple(p.app_cpu_total for p in cluster.processors),
        cluster.message_count,
    )


@settings(max_examples=30, deadline=None)
@given(rounds=_ROUNDS, chat=st.booleans(), load=st.booleans())
def test_staircases_match_reference_event_for_event(rounds, chat, load):
    plain = _execute(rounds, chat, load)
    # Observation disables the direct mailbox handoff (true queue
    # depths for net/msg spans) but must not change the simulation.
    assert _execute(rounds, chat, load, observe=True) == plain
    # An armed injector with nothing to inject takes every fault branch
    # (stall clamp, seq stamping, _transmit, dedupe) to the same result.
    assert _execute(rounds, chat, load, armed=True) == plain


# ----------------------------------------------------------------------
# 2. Regression: an armed FaultPlan keeps results bit-identical
# ----------------------------------------------------------------------


def _cfg():
    return RunConfig(
        cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=1e6)),
    )


@pytest.mark.parametrize("plan_name", ["message-light", "message-heavy", "dup-reorder"])
@pytest.mark.parametrize("observe", [False, True], ids=["plain", "observed"])
def test_fault_plans_bit_identical(plan_name, observe):
    baseline = run_application(build_matmul(n=32), _cfg(), seed=11)
    injected = run_application(
        build_matmul(n=32),
        _cfg(),
        seed=11,
        recorder=Recorder() if observe else None,
        faults=named_plan(plan_name, seed=5),
    )
    again = run_application(
        build_matmul(n=32), _cfg(), seed=11, faults=named_plan(plan_name, seed=5)
    )
    # The same plan twice is *exactly* the same fault run — same
    # numerics, clock, and wire traffic, with or without a recorder —
    # and the transport layer must still hide the perturbation.
    np.testing.assert_array_equal(injected.result, baseline.result)
    np.testing.assert_array_equal(injected.result, again.result)
    assert injected.elapsed == again.elapsed
    assert injected.message_count == again.message_count
    assert injected.dead_pids == ()
