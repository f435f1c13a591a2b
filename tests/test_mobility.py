import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavsim._csvfile import write_csvs
from uavsim import DomainError
from uavsim.experiment import PRESETS, _flight_ends, _slot_count
from uavsim.mobility import (RelayGeometry, _overflight_steps, cycle_times,
                             ferry_x, mobile_relay_x, overflight_x)


def relay_geom(v_max, delta=20.0, separation=1000.0, altitude=100.0):
    return RelayGeometry(separation=separation, uav_altitude=altitude,
                         v_max=v_max, delay_budget=delta)


def relay_cycle(shape, geom, time_step):
    """One relaying cycle flown along ``shape`` (``mobile_relay_x`` or
    ``ferry_x``): its sample times and (x, y, z) positions, along the x
    axis at the UAV altitude."""
    times = cycle_times(geom, time_step)
    xs = shape(geom, times)
    return times, np.column_stack(
        [xs, np.zeros_like(xs), np.full_like(xs, geom.uav_altitude)])


def overflight(start, end, speed, time_step):
    """The overflight sampled every ``time_step`` until it arrives: its
    sample times and (x, y, z) positions."""
    steps = _overflight_steps(math.dist(start, end), speed, time_step)
    times = np.arange(steps + 1) * time_step
    return times, overflight_x(start, end, speed, times)


SPEED_TOLERANCE = 1e-9  # slack on the per-step speed bound, m/s


def step_violations(times, positions, time_step, v_max):
    """Indices of the later sample of each pair that steps back in time,
    off the uniform ``time_step``, or faster than ``v_max``; a step that
    does not move forward in time is only a time violation."""
    dt = np.diff(times)
    bad_time = dt <= 0
    displacement = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        too_fast = displacement / dt > v_max + SPEED_TOLERANCE
    return tuple(tuple((np.flatnonzero(bad) + 1).tolist()) for bad in (
        bad_time, ~bad_time & (np.abs(dt - time_step) > 1e-9),
        ~bad_time & too_fast))


def assert_respects_v_max(times, positions, time_step, v_max):
    """Time runs forward in uniform steps, none faster than ``v_max``."""
    assert step_violations(times, positions, time_step, v_max) == \
        ((), (), ())


def write_trajectory(times, positions, path):
    """Columns time_s, x_m, y_m, z_m through the figures' CSV writer."""
    write_csvs([(path, ["time_s", "x_m", "y_m", "z_m"],
                 [times, *positions.T])])


def source_distance(positions):
    return np.hypot(positions[:, 0], positions[:, 1])


def by_time(times, positions):
    """Position rows keyed by the sample time rounded to 1 us."""
    return {round(t, 6): p for t, p in zip(times.tolist(),
                                           positions.tolist())}


def bits(values):
    """The float64 bit patterns of ``values``, so that -0.0 != 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestMobileRelayTrajectory:
    def test_hover_above_source_window(self):
        # v=100 m/s, delta=20 s: overhead from t=5 to t=15, i.e. 10 s.
        times, positions = relay_cycle(mobile_relay_x, relay_geom(100.0),
                                       0.01)
        overhead = times[(times <= 20.0) & (np.abs(positions[:, 0]) < 1e-9)]
        assert overhead.min() == pytest.approx(5.0, abs=0.011)
        assert overhead.max() == pytest.approx(15.0, abs=0.011)

    def test_zero_speed_stays_at_midpoint(self):
        times, positions = relay_cycle(mobile_relay_x, relay_geom(0.0), 0.1)
        assert positions.tolist() == [[500.0, 0.0, 100.0]] * len(times)

    def test_turnaround_without_hover(self):
        # v=30 m/s cannot reach the source: closest approach R/2 - v*delta/2
        # = 200 m horizontally, at t = delta/2.
        times, positions = relay_cycle(mobile_relay_x, relay_geom(30.0), 0.01)
        phase1 = np.flatnonzero(times <= 10.0 + 1e-9)
        closest = phase1[np.argmin(positions[phase1, 0])]
        assert positions[closest, 0] == pytest.approx(200.0, abs=1e-6)
        assert times[closest] == pytest.approx(10.0, abs=0.011)

    def test_cycle_span_and_midpoint_boundaries(self):
        times, positions = relay_cycle(mobile_relay_x, relay_geom(100.0),
                                       0.01)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(40.0, abs=1e-9)
        for t_idx in (0, len(times) // 2, -1):
            assert positions[t_idx, 0] == pytest.approx(500.0, abs=1e-9)

    def test_non_divisible_time_step_rejected(self):
        with pytest.raises(DomainError):
            relay_cycle(mobile_relay_x, relay_geom(100.0), 0.3)

    @pytest.mark.parametrize("v", [0.0, 10.0, 30.0, 100.0, 250.0])
    def test_phase_time_symmetry(self, v):
        # position(t) == position(delta - t) within phase 1.
        positions = by_time(*relay_cycle(mobile_relay_x, relay_geom(v), 0.01))
        for t in [0.0, 1.23, 4.56, 7.0, 9.99]:
            t = round(t, 6)
            mirror = round(20.0 - t, 6)
            if t in positions and mirror in positions:
                assert positions[t][0] == pytest.approx(positions[mirror][0],
                                                        abs=1e-6)

    @pytest.mark.parametrize("v", [10.0, 100.0])
    def test_phase2_mirrors_phase1(self, v):
        positions = by_time(*relay_cycle(mobile_relay_x, relay_geom(v), 0.01))
        for t in [0.5, 3.0, 8.25]:
            p1 = positions[round(t, 6)]
            p2 = positions[round(t + 20.0, 6)]
            assert p2[0] == pytest.approx(1000.0 - p1[0], abs=1e-6)

    def test_distance_to_source_v_shaped_in_phase1(self):
        times, positions = relay_cycle(mobile_relay_x, relay_geom(30.0), 0.01)
        distances = source_distance(positions)[times <= 20.0 + 1e-9].tolist()
        turn = distances.index(min(distances))
        assert all(a >= b - 1e-9 for a, b in
                   zip(distances[:turn], distances[1:turn + 1]))
        assert all(a <= b + 1e-9 for a, b in
                   zip(distances[turn:], distances[turn + 1:]))

    @pytest.mark.parametrize("v", [0.0, 10.0, 30.0, 100.0])
    def test_passes_validation_at_own_vmax(self, v):
        assert_respects_v_max(
            *relay_cycle(mobile_relay_x, relay_geom(v), 0.01), 0.01, v)


class TestShapeFunctions:
    """The array shape functions give one float64 position per sample
    time, between the source and the destination."""

    @staticmethod
    def assert_positions(xs, times):
        assert xs.dtype == times.dtype == np.float64
        assert xs.shape == times.shape
        assert np.all((xs >= 0.0) & (xs <= 1000.0))

    # v=0 (parked), 30 (turnaround at delta/2), 50 (reaches the source
    # with no hover left), 100 (hover), 250 (long hover).
    @pytest.mark.parametrize("v", [0.0, 30.0, 50.0, 100.0, 250.0])
    def test_mobile_relay(self, v):
        geom = relay_geom(v)
        times = cycle_times(geom, 0.01)
        xs = mobile_relay_x(geom, times)
        self.assert_positions(xs, times)

    def test_mobile_relay_branches(self):
        times = cycle_times(relay_geom(0.0), 0.01)
        assert np.all(mobile_relay_x(relay_geom(0.0), times) == 500.0)
        turn = mobile_relay_x(relay_geom(30.0), times)
        assert turn.min() == pytest.approx(200.0, abs=1e-9)
        assert turn.max() == pytest.approx(800.0, abs=1e-9)
        hover = mobile_relay_x(relay_geom(100.0), times)
        assert np.count_nonzero(hover == 0.0) == 1001  # t in [5, 15]
        assert np.count_nonzero(hover == 1000.0) == 1001

    # v=50 leaves no hover (v*delta == R); 60 and 100 hover at each end.
    @pytest.mark.parametrize("v", [50.0, 60.0, 100.0])
    def test_ferry(self, v):
        geom = relay_geom(v)
        times = cycle_times(geom, 0.01)
        xs = ferry_x(geom, times)
        self.assert_positions(xs, times)
        assert xs.min() == 0.0 and xs.max() == 1000.0

    @pytest.mark.parametrize("v", [0.0, 30.0, 50.0, 60.0, 100.0, 250.0])
    def test_matches_piecewise_oracle(self, v):
        # The per-sample piecewise definitions, evaluated one time at a
        # time in plain floats.
        delta, half, R = 20.0, 500.0, 1000.0

        def sawtooth(t):
            if v == 0.0:
                return half
            if v * delta / 2.0 >= half:
                t_fly = half / v
                if t <= t_fly:
                    return half - v * t
                if t <= delta - t_fly:
                    return 0.0
                return v * (t - (delta - t_fly))
            if t <= delta / 2.0:
                return half - v * t
            return half - v * (delta - t)

        def shuttle(t):
            t_hover = delta - R / v
            if t <= t_hover:
                x = 0.0
            elif t <= delta:
                x = v * (t - t_hover)
            elif t <= delta + t_hover:
                x = R
            else:
                x = R - v * (t - delta - t_hover)
            return min(max(x, 0.0), R)

        geom = relay_geom(v)
        times = cycle_times(geom, 0.01)
        assert mobile_relay_x(geom, times).tolist() == [
            sawtooth(t) if t <= delta else R - sawtooth(t - delta)
            for t in times.tolist()]
        # Byte for byte, the array formulas the legs replaced.
        assert mobile_relay_x(geom, times).tobytes() == \
            where_sawtooth(geom, times).tobytes()
        if v >= 50.0:
            assert ferry_x(geom, times).tolist() == \
                [shuttle(t) for t in times.tolist()]
            assert ferry_x(geom, times).tobytes() == \
                where_shuttle(geom, times).tobytes()

    def test_ferry_infeasible(self):
        geom = relay_geom(49.0)
        with pytest.raises(DomainError):
            ferry_x(geom, cycle_times(geom, 0.01))

    def test_cycle_times(self):
        times = cycle_times(relay_geom(10.0), 0.01)
        assert times.tolist() == [i * 0.01 for i in range(4001)]
        with pytest.raises(DomainError):
            cycle_times(relay_geom(10.0), 0.3)

    @pytest.mark.parametrize("delta,time_step", [
        (10.0, 5e-324), (10.0, math.inf), (10.0, math.nan),
        (10.0, 0.0), (10.0, -0.0)],
        ids=["quotient_inf", "step_inf", "quotient_nan", "zero_step",
             "negative_zero_step"])
    def test_cycle_times_non_finite_quotient(self, delta, time_step):
        # round() of an inf or nan quotient raised a bare OverflowError or
        # ValueError that named no parameter, and a zero step a bare
        # ZeroDivisionError.
        with pytest.raises(DomainError, match="time_step"):
            cycle_times(RelayGeometry(1000.0, 100.0, 10.0, delta), time_step)

    @pytest.mark.parametrize("field", ["separation", "uav_altitude", "v_max",
                                       "delay_budget"])
    def test_infinite_geometry_refused(self, field):
        # An infinite delay budget once reached cycle_times, whose quotient
        # was then inf or nan; every field is now refused when infinite.
        fields = {"separation": 1000.0, "uav_altitude": 100.0, "v_max": 10.0,
                  "delay_budget": 10.0, field: math.inf}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            RelayGeometry(**fields)


def where_sawtooth(geom, times):
    """``mobile_relay_x`` as it was written before its legs: every leg at
    every sample, picked by nested ``np.where``."""
    delta, half, v = geom.delay_budget, geom.separation / 2.0, geom.v_max
    phase1 = times <= delta
    with np.errstate(all="ignore"):
        t = np.where(phase1, times, times - delta)
        if v == 0.0:
            x = np.full_like(t, half)
        elif v * delta / 2.0 >= half:
            t_fly = half / v
            x = np.where(t <= t_fly, half - v * t,
                         np.where(t <= delta - t_fly, 0.0,
                                  v * (t - (delta - t_fly))))
        else:
            x = np.where(t <= delta / 2.0, half - v * t,
                         half - v * (delta - t))
        return np.where(phase1, x, geom.separation - x)


def where_shuttle(geom, times):
    """``ferry_x`` as it was written before its legs."""
    delta, v, R = geom.delay_budget, geom.v_max, geom.separation
    t_hover = delta - R / v
    with np.errstate(all="ignore"):
        x = np.where(times <= t_hover, 0.0,
                     np.where(times <= delta, v * (times - t_hover),
                              np.where(times <= delta + t_hover, R,
                                       R - v * (times - delta - t_hover))))
    return np.minimum(np.maximum(x, 0.0), R)


@st.composite
def flights(draw):
    """A relay geometry and sample times, many of them on a leg's end or
    one float from it, in cycle order or not."""
    R = draw(st.floats(1.0, 1e4))
    delta = draw(st.floats(0.5, 100.0))
    # Parked, turning around (v*delta < R), the ferry's minimum speed (or
    # just below it, within the ferry's tolerance, where its hover time is
    # negative and its legs' ends are out of order), or hovering.
    v = draw(st.one_of(st.sampled_from([0.0, R / delta,
                                        (R - 5e-10) / delta]),
                       st.floats(1e-3, 10.0 * R / delta)))
    ends = [0.0, delta / 2.0, delta, 1.5 * delta, 2.0 * delta]
    if v:
        t_fly, t_hover = R / 2.0 / v, delta - R / v
        ends += [t_fly, delta - t_fly, delta + t_fly, 2.0 * delta - t_fly,
                 t_hover, delta + t_hover, delta - t_hover]
    ends += [float(np.nextafter(t, side)) for t in ends
             for side in (-math.inf, math.inf)]
    times = draw(st.lists(st.one_of(
        st.sampled_from([t for t in ends if t >= 0.0]),
        st.floats(0.0, 3.0 * delta)), min_size=1, max_size=40))
    if draw(st.booleans()):
        times.sort()
    return RelayGeometry(R, 100.0, v, delta), np.array(times)


class TestLegs:
    """Each leg is evaluated only at its own samples, with the expression
    it had when every leg was evaluated at every sample: the positions
    keep every bit."""

    @settings(max_examples=300, deadline=None)
    @given(flight=flights())
    def test_legs_match_where_formulas(self, flight):
        geom, times = flight
        assert mobile_relay_x(geom, times).tobytes() == \
            where_sawtooth(geom, times).tobytes()
        if geom.v_max * geom.delay_budget >= geom.separation - 1e-9:
            assert ferry_x(geom, times).tobytes() == \
                where_shuttle(geom, times).tobytes()

    def test_unsorted_times_keep_their_order(self):
        geom = relay_geom(100.0)
        times = cycle_times(geom, 0.5)
        order = np.random.default_rng(0).permutation(len(times))
        for shape in (mobile_relay_x, ferry_x):
            assert shape(geom, times[order]).tolist() == \
                shape(geom, times)[order].tolist()
            grid = times[order].reshape(-1, 9)
            assert shape(geom, grid).tolist() == \
                shape(geom, times)[order].reshape(-1, 9).tolist()


class TestFerryTrajectory:
    def test_hover_and_flight_segments(self):
        # v=100, delta=20, R=1000: 10 s hover at each end, 10 s legs.
        times, positions = relay_cycle(ferry_x, relay_geom(100.0), 0.01)
        x = positions[:, 0]
        at_source = times[x == 0.0]
        at_dest = times[x == 1000.0]
        assert at_source[at_source < 20.0].max() == pytest.approx(
            10.0, abs=0.011)
        assert at_dest.min() == pytest.approx(20.0, abs=0.011)
        assert at_dest.max() == pytest.approx(30.0, abs=0.011)
        assert x[-1] == pytest.approx(0.0, abs=1e-6)

    def test_boundary_speed_zero_hover(self):
        times, positions = relay_cycle(ferry_x, relay_geom(50.0), 0.01)
        at_source_p1 = times[(positions[:, 0] == 0.0) & (times < 20.0)]
        assert at_source_p1.max() == pytest.approx(0.0, abs=0.011)

    def test_infeasible_speed_reports_minimum(self):
        with pytest.raises(DomainError,
                           match="minimum feasible speed is 50.0 m/s"):
            relay_cycle(ferry_x, relay_geom(49.0), 0.01)

    def test_passes_validation_at_own_vmax(self):
        assert_respects_v_max(
            *relay_cycle(ferry_x, relay_geom(80.0), 0.01), 0.01, 80.0)


class TestOverflightTrajectory:
    def test_degenerate_single_state(self):
        positions = overflight_x((5.0, 5.0, 50.0), (5.0, 5.0, 50.0),
                                 speed=10.0, times=np.array([0.0, 1.5, 3.0]))
        assert positions.tolist() == [[5.0, 5.0, 50.0]] * 3

    def test_final_timestamp(self):
        times, positions = overflight((0.0, 0.0, 100.0), (1000.0, 0.0, 100.0),
                                      speed=20.0, time_step=0.1)
        assert times[-1] == pytest.approx(50.0, abs=0.1)
        assert positions[-1, 0] == pytest.approx(1000.0, abs=1e-9)
        # The UAV stays at the end once there.
        assert overflight_x((0.0, 0.0, 100.0), (1000.0, 0.0, 100.0), 20.0,
                            np.array([60.0, 1e9])).tolist() == \
            [[1000.0, 0.0, 100.0]] * 2

    def test_zero_speed_rejected(self):
        with pytest.raises(DomainError):
            overflight_x((0.0, 0.0, 100.0), (10.0, 0.0, 100.0), speed=0.0,
                         times=np.zeros(1))

    @pytest.mark.parametrize("speed,times", [
        (-1.0, [0.0]), (math.nan, [0.0]), (math.inf, [0.0]),
        # Times i*step for steps of -0.1, nan and inf (0 * inf is nan).
        (10.0, [0.0, -0.1, -0.2]), (10.0, [math.nan] * 3),
        (10.0, [math.nan, math.inf, math.inf])],
        ids=["speed_negative", "speed_nan", "speed_inf", "step_negative",
             "step_nan", "step_inf"])
    @pytest.mark.parametrize("end", [(10.0, 0.0, 100.0), (0.0, 0.0, 100.0)],
                             ids=["line", "hover"])
    def test_bad_speed_or_times_rejected(self, speed, times, end):
        with pytest.raises(DomainError,
                           match="speed must be finite and > 0|"
                                 "times must be >= 0"):
            overflight_x((0.0, 0.0, 100.0), end, speed=speed,
                         times=np.array(times))

    @given(start=st.tuples(*[st.floats(-2000.0, 2000.0)] * 3),
           end=st.tuples(*[st.floats(-2000.0, 2000.0)] * 3),
           speed=st.floats(min_value=5.0, max_value=300.0),
           time_step=st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]),
           slot=st.floats(min_value=0.05, max_value=7.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, start, end, speed, time_step, slot):
        # At the whole time steps up to arrival, and at slot starts that
        # run past it.
        times, positions = overflight(start, end, speed, time_step)
        assert times.tolist() == scalar_overflight_times(start, end, speed,
                                                         time_step)
        slots = np.arange(200) * slot
        for times, positions in ((times, positions),
                                 (slots, overflight_x(start, end, speed,
                                                      slots))):
            assert positions.shape == (len(times), 3)
            assert np.array_equal(bits(positions), bits(scalar_overflight(
                start, end, speed, times.tolist())))

    def test_dissemination_flight_matches_scalar_oracle(self):
        # The dissem20 overflight: a 1 km field passed by the 300 m
        # coverage radius at each end, 20 m/s, at the start of each of its
        # 160 slots of 0.5 s.
        params = PRESETS["dissem20"]["params"]
        start, end = _flight_ends(params)
        assert (start, end) == ((-300.0, 0.0, 100.0), (1300.0, 0.0, 100.0))
        assert _slot_count(params) == 160
        times = np.arange(160) * 0.5
        assert np.array_equal(
            bits(overflight_x(start, end, 20.0, times)),
            bits(scalar_overflight(start, end, 20.0, times.tolist())))

    def test_last_slot_in_final_partial_step(self):
        # 1,601 m at 20 m/s takes 80.05 s, rounded up to 801 steps of
        # 0.1 s, so 0.05 s slots number 1,602 and the last starts at
        # 80.05 s, inside the final partial step: the UAV is at the end
        # there.  A polyline sampled every 0.1 s put it halfway between
        # its last two samples, 0.5 m short.
        params = {**PRESETS["dissem20"]["params"], "field_length_m": 1001.0,
                  "slot_duration_s": 0.05}
        start, end = _flight_ends(params)
        assert math.dist(start, end) == 1601.0
        assert _slot_count(params) == 1602
        times = np.arange(1602) * 0.05
        positions = overflight_x(start, end, 20.0, times)
        assert positions[-1].tolist() == list(end)
        assert np.array_equal(bits(positions), bits(scalar_overflight(
            start, end, 20.0, times.tolist())))

    def test_subnormal_flight_overflows_silently(self):
        # On a flight of 1e-310 m, speed * t / length overflows to inf; the
        # clip to 1 puts the UAV at the end, as the scalar formula does,
        # and no RuntimeWarning reaches the caller.
        start, end, times = (0.0, 0.0, 100.0), (1e-310, 0.0, 100.0), [0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            positions = overflight_x(start, end, 1e3, np.array(times))
        assert np.array_equal(bits(positions), bits(scalar_overflight(
            start, end, 1e3, times)))
        assert positions[-1].tolist() == list(end)

    @given(speed=st.floats(min_value=0.5, max_value=300.0),
           length=st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_always_passes_validation(self, speed, length):
        assert_respects_v_max(*overflight((0.0, 0.0, 100.0),
                                          (length, 0.0, 100.0), speed=speed,
                                          time_step=0.5), 0.5, speed)


def scalar_overflight_times(start, end, speed, time_step):
    """Reference: the whole time steps up to arrival, i * time_step for
    i <= ceil(length / (speed * time_step))."""
    length = math.dist(start, end)
    if length == 0.0:
        return [0.0]
    n = math.ceil(length / (speed * time_step) - 1e-12)
    return [i * time_step for i in range(n + 1)]


def scalar_overflight(start, end, speed, times):
    """Reference: the per-sample loop that ``overflight_x`` vectorises;
    returns the positions at ``times`` as lists of floats."""
    length = math.dist(start, end)
    if length == 0.0:
        return [list(start) for _ in times]
    positions = []
    for t in times:
        frac = min(speed * t / length, 1.0)
        positions.append([a + frac * (b - a) for a, b in zip(start, end)])
    return positions


def scalar_step_violations(times, positions, time_step, v_max):
    """Reference: the per-pair loop that ``step_violations`` vectorises."""
    times, positions = list(times), np.asarray(positions).tolist()
    bad_time, bad_step, bad_speed = [], [], []
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        if dt <= 0:
            bad_time.append(i)
            continue
        if abs(dt - time_step) > 1e-9:
            bad_step.append(i)
        if math.dist(positions[i - 1], positions[i]) / dt \
                > v_max + SPEED_TOLERANCE:
            bad_speed.append(i)
    return tuple(bad_time), tuple(bad_step), tuple(bad_speed)


class TestValidateTrajectory:
    """``step_violations``, the check behind every "respects v_max" test."""

    def test_flags_flight_segments_at_half_vmax(self):
        times, positions = relay_cycle(mobile_relay_x, relay_geom(100.0),
                                       0.01)
        speed_violations = step_violations(times, positions, 0.01, 50.0)[2]
        # Both 10 s flight legs at 0.01 s steps; hover samples are fine.
        assert len(speed_violations) == 2000
        dx = np.diff(positions[:, 0])
        for i in speed_violations:
            assert abs(dx[i - 1]) > 0.0

    def test_single_jump_violation(self):
        flight = line_flight([0.0, 1.0], [0.0, 1e6])
        assert step_violations(*flight, 1.0, 100.0) == ((), (), (1,))

    def test_non_monotone_time_flagged(self):
        # The backward step also jumps 1 m in -0.5 s, but is reported only
        # as a time violation.
        flight = line_flight([0.0, 1.0, 0.5], [0.0, 1.0, 2.0])
        assert step_violations(*flight, 1.0, 100.0) == ((2,), (), ())

    def test_non_uniform_step_flagged(self):
        flight = line_flight([0.0, 1.0, 2.5], [0.0, 1.0, 2.0])
        assert step_violations(*flight, 1.0, 100.0)[1] == (2,)

    @given(steps=st.lists(st.tuples(
               st.sampled_from([1.0, 1.0, 1.0, 1.5, 0.0, -0.5, math.nan]),
               st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
               min_size=0, max_size=30),
           v_max=st.floats(0.0, 250.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_oracle(self, steps, v_max):
        times, xs, ys = [0.0], [0.0], [0.0]
        for dt, dx, dy in steps:
            times.append(times[-1] + dt)
            xs.append(xs[-1] + dx)
            ys.append(ys[-1] + dy)
        positions = np.column_stack([xs, ys, np.full(len(xs), 100.0)])
        assert step_violations(np.array(times), positions, 1.0, v_max) == \
            scalar_step_violations(times, positions, 1.0, v_max)

    @pytest.mark.parametrize("v", [0.0, 30.0, 100.0])
    def test_relay_cycle_matches_scalar_oracle(self, v):
        times, positions = relay_cycle(mobile_relay_x, relay_geom(100.0),
                                       0.01)
        assert step_violations(times, positions, 0.01, v) == \
            scalar_step_violations(times.tolist(), positions, 0.01, v)


def line_flight(times, xs):
    """Sample times and positions along the x axis at 100 m."""
    return np.array(times), np.array([[x, 0.0, 100.0] for x in xs])


class TestTrajectoryCsv:
    """Flight columns through ``write_csvs``: float64 texts, one row per
    sample."""

    def test_round_trippable_columns(self, tmp_path):
        times, positions = relay_cycle(mobile_relay_x, relay_geom(100.0), 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory(times, positions, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,x_m,y_m,z_m"
        assert len(lines) == len(times) + 1
        t, x, y, z = (float(v) for v in lines[1].split(","))
        assert (t, x, y, z) == (0.0, 500.0, 0.0, 100.0)

    @pytest.mark.parametrize("flight", [
        relay_cycle(mobile_relay_x, relay_geom(100.0), 0.01),
        relay_cycle(ferry_x, relay_geom(100.0), 0.01),
        # Int geometry: every column is float64, so 100 is written 100.0.
        relay_cycle(mobile_relay_x, RelayGeometry(1000, 100, 50, 20), 0.1),
        overflight((0, 0, 50), (10, 5, 50), 1, 1),
        overflight((3, 4, 5), (3, 4, 5), 1.0, 0.5),
    ], ids=["mobile", "ferry", "int_geometry", "int_overflight", "hover"])
    def test_bytes_match_row_writer(self, tmp_path, flight):
        """The bytes ``csv`` wrote from one [time, x, y, z] row per sample."""
        times, positions = flight
        with open(tmp_path / "rows.csv", "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["time_s", "x_m", "y_m", "z_m"])
            writer.writerows([t, *p] for t, p in zip(times.tolist(),
                                                     positions.tolist()))
        write_trajectory(times, positions, tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
