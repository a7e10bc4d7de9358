"""Unit tests for competing-load generators."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.config import ProcessorSpec
from repro.errors import ConfigError
from repro.sim.load import (
    CompositeLoad,
    ConstantLoad,
    NoLoad,
    OscillatingLoad,
    StepLoad,
)
from repro.sim.processor import Processor


class TestNoLoad:
    def test_always_zero(self):
        g = NoLoad()
        for t in (0.0, 1.0, 1e6):
            assert g.k_at(t) == 0
        assert g.next_change(0.0) == math.inf

    def test_busy_time_zero(self):
        assert NoLoad().competing_busy_time(0.0, 100.0) == 0.0


class TestConstantLoad:
    def test_window(self):
        g = ConstantLoad(k=2, start=10.0, stop=20.0)
        assert g.k_at(5.0) == 0
        assert g.k_at(10.0) == 2
        assert g.k_at(19.999) == 2
        assert g.k_at(20.0) == 0

    def test_next_change(self):
        g = ConstantLoad(k=1, start=10.0, stop=20.0)
        assert g.next_change(0.0) == 10.0
        assert g.next_change(10.0) == 20.0
        assert g.next_change(25.0) == math.inf

    def test_busy_time(self):
        g = ConstantLoad(k=1, start=10.0, stop=20.0)
        assert g.competing_busy_time(0.0, 30.0) == pytest.approx(10.0)
        assert g.competing_busy_time(12.0, 15.0) == pytest.approx(3.0)
        assert g.competing_busy_time(0.0, 5.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ConstantLoad(k=-1)
        with pytest.raises(ConfigError):
            ConstantLoad(k=1, start=5.0, stop=1.0)


class TestOscillatingLoad:
    def test_paper_figure9_pattern(self):
        # 20 s period, 10 s on — the Figure 9 experiment.
        g = OscillatingLoad(k=1, period=20.0, duration=10.0)
        assert g.k_at(0.0) == 1
        assert g.k_at(9.999) == 1
        assert g.k_at(10.0) == 0
        assert g.k_at(19.999) == 0
        assert g.k_at(20.0) == 1
        assert g.k_at(35.0) == 0

    def test_next_change_alternates(self):
        g = OscillatingLoad(k=1, period=20.0, duration=10.0)
        assert g.next_change(0.0) == 10.0
        assert g.next_change(10.0) == 20.0
        assert g.next_change(15.0) == 20.0
        assert g.next_change(20.0) == 30.0

    def test_start_offset(self):
        g = OscillatingLoad(k=1, period=20.0, duration=10.0, start=5.0)
        assert g.k_at(4.0) == 0
        assert g.next_change(0.0) == 5.0
        assert g.k_at(5.0) == 1
        assert g.k_at(15.0) == 0

    def test_busy_time_over_full_cycles(self):
        g = OscillatingLoad(k=1, period=20.0, duration=10.0)
        assert g.competing_busy_time(0.0, 100.0) == pytest.approx(50.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            OscillatingLoad(k=1, period=10.0, duration=11.0)
        with pytest.raises(ConfigError):
            OscillatingLoad(k=1, period=0.0, duration=0.0)

    def test_boundary_rounding_regression(self):
        # start + 30 rounds onto t, while t - start rounds to just under
        # 30: the old arithmetic returned t itself from next_change and
        # Processor.run_cpu never terminated.
        g = OscillatingLoad(k=1, period=20, duration=10, start=6.236629040209709)
        t = 36.236629040209706
        nxt = g.next_change(t)
        assert nxt > t
        assert g.k_at(t) == g.k_at(math.nextafter(nxt, -math.inf))
        assert g.segment_start(t) <= t
        proc = Processor(0, ProcessorSpec(speed=1e6, quantum=0.1), g)
        assert proc.run_cpu(t, 1.0) > t

    @pytest.mark.parametrize("period", [2.0, 4.0, 6.0, 20.0])
    def test_grid_aligned_matches_plain_arithmetic(self, period):
        # On an exactly representable grid, the segments are the textbook
        # ones: [start + c*period, +duration) loaded, the rest idle.
        duration = period / 2
        for j in range(16):
            start = period / 16 * j
            g = OscillatingLoad(k=2, period=period, duration=duration, start=start)
            for i in range(400):
                t = start + i * period / 40
                c = math.floor((t - start) / period)
                phase = (t - start) - c * period
                loaded = phase < duration
                assert g.k_at(t) == (2 if loaded else 0)
                assert g.next_change(t) == (
                    start + c * period + duration if loaded
                    else start + (c + 1) * period
                )
                assert g.segment_start(t) == (
                    start + c * period if loaded else start + c * period + duration
                )


@given(
    start=st.floats(0.0, 100.0),
    period=st.floats(0.5, 50.0),
    frac=st.floats(0.05, 1.0),
    cycle=st.integers(0, 50),
    at_off=st.booleans(),
    ulps=st.integers(-4, 4),
)
def test_oscillating_segments_near_boundaries(start, period, frac, cycle, at_off, ulps):
    """Within a few ulps of any boundary: next_change(t) > t, and k is
    constant on [t, next_change(t)) including its last float."""
    g = OscillatingLoad(k=3, period=period, duration=frac * period, start=start)
    t = start + cycle * period + (frac * period if at_off else 0.0)
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        t = math.nextafter(t, step)
    assume(t >= start)
    nxt = g.next_change(t)
    assert nxt > t
    k = g.k_at(t)
    assert g.k_at(math.nextafter(nxt, -math.inf)) == k
    mid = t + (nxt - t) * 0.5
    if mid < nxt:  # a one-ulp segment has no interior float
        assert g.k_at(mid) == k
    seg = g.segment_start(t)
    assert seg <= t
    assert g.segment_start(math.nextafter(nxt, -math.inf)) == seg


class TestStepLoad:
    def test_steps(self):
        g = StepLoad([(0.0, 1), (10.0, 3), (20.0, 0)])
        assert g.k_at(0.0) == 1
        assert g.k_at(10.0) == 3
        assert g.k_at(25.0) == 0
        assert g.k_at(-1.0) == 0

    def test_next_change(self):
        g = StepLoad([(0.0, 1), (10.0, 3)])
        assert g.next_change(0.0) == 10.0
        assert g.next_change(10.0) == math.inf

    def test_validation(self):
        with pytest.raises(ConfigError):
            StepLoad([])
        with pytest.raises(ConfigError):
            StepLoad([(0.0, 1), (0.0, 2)])
        with pytest.raises(ConfigError):
            StepLoad([(0.0, -1)])


class TestCompositeLoad:
    def test_sums_components(self):
        g = CompositeLoad(
            [ConstantLoad(k=1, start=0.0, stop=10.0), ConstantLoad(k=2, start=5.0, stop=15.0)]
        )
        assert g.k_at(2.0) == 1
        assert g.k_at(7.0) == 3
        assert g.k_at(12.0) == 2
        assert g.k_at(20.0) == 0

    def test_next_change_is_min(self):
        g = CompositeLoad(
            [ConstantLoad(k=1, start=3.0), ConstantLoad(k=1, start=1.0)]
        )
        assert g.next_change(0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            CompositeLoad([])


@given(
    period=st.floats(1.0, 50.0),
    frac=st.floats(0.1, 0.9),
    t=st.floats(0.0, 100.0),
)
def test_oscillating_next_change_is_consistent(period, frac, t):
    """next_change returns a strictly later time, and k is constant on the
    interior of [t, next_change(t))."""
    g = OscillatingLoad(k=2, period=period, duration=frac * period)
    nxt = g.next_change(t)
    assert nxt > t
    # Probe strictly inside the interval, away from float-rounding at the
    # endpoints: k must be constant there.  Skip intervals so narrow that
    # the probes themselves round onto the boundary.
    assume(nxt - t > 1e-6)
    mid = t + (nxt - t) * 0.5
    assert g.k_at(t + (nxt - t) * 0.25) == g.k_at(mid)
    assert g.k_at(t + (nxt - t) * 0.75) == g.k_at(mid)


@given(
    steps=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    t0=st.floats(0.0, 10.0),
    dt=st.floats(0.0, 50.0),
)
def test_steploady_busy_time_bounded_by_interval(steps, t0, dt):
    step_list = [(float(i * 3), k) for i, k in enumerate(steps)]
    g = StepLoad(step_list)
    busy = g.competing_busy_time(t0, t0 + dt)
    assert 0.0 <= busy <= dt + 1e-9
