import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavsim.mobility import (FerryInfeasibleError, RelayGeometry, Trajectory,
                             TrajectoryConfigError, UavState, cycle_times,
                             ferry_trajectory, ferry_x, mobile_relay_trajectory,
                             mobile_relay_x, overflight_trajectory,
                             validate_trajectory)


def relay_geom(v_max, delta=20.0, separation=1000.0, altitude=100.0):
    return RelayGeometry(separation=separation, uav_altitude=altitude,
                         v_max=v_max, delay_budget=delta)


def source_distance(state):
    return math.hypot(state.position[0], state.position[1])


class TestMobileRelayTrajectory:
    def test_hover_above_source_window(self):
        # v=100 m/s, delta=20 s: overhead from t=5 to t=15, i.e. 10 s.
        traj = mobile_relay_trajectory(relay_geom(100.0), time_step=0.01)
        overhead = [s.time for s in traj.states
                    if s.time <= 20.0 and abs(s.position[0]) < 1e-9]
        assert min(overhead) == pytest.approx(5.0, abs=0.011)
        assert max(overhead) == pytest.approx(15.0, abs=0.011)

    def test_zero_speed_stays_at_midpoint(self):
        traj = mobile_relay_trajectory(relay_geom(0.0), time_step=0.1)
        for s in traj.states:
            assert s.position == (500.0, 0.0, 100.0)

    def test_turnaround_without_hover(self):
        # v=30 m/s cannot reach the source: closest approach R/2 - v*delta/2
        # = 200 m horizontally, at t = delta/2.
        traj = mobile_relay_trajectory(relay_geom(30.0), time_step=0.01)
        phase1 = [s for s in traj.states if s.time <= 10.0 + 1e-9]
        closest = min(phase1, key=lambda s: s.position[0])
        assert closest.position[0] == pytest.approx(200.0, abs=1e-6)
        assert closest.time == pytest.approx(10.0, abs=0.011)

    def test_cycle_span_and_midpoint_boundaries(self):
        traj = mobile_relay_trajectory(relay_geom(100.0), time_step=0.01)
        assert traj.states[0].time == 0.0
        assert traj.states[-1].time == pytest.approx(40.0, abs=1e-9)
        for t_idx in (0, len(traj.states) // 2, -1):
            assert traj.states[t_idx].position[0] == pytest.approx(500.0,
                                                                   abs=1e-9)

    def test_non_divisible_time_step_rejected(self):
        with pytest.raises(TrajectoryConfigError):
            mobile_relay_trajectory(relay_geom(100.0), time_step=0.3)

    @pytest.mark.parametrize("v", [0.0, 10.0, 30.0, 100.0, 250.0])
    def test_phase_time_symmetry(self, v):
        # position(t) == position(delta - t) within phase 1.
        traj = mobile_relay_trajectory(relay_geom(v), time_step=0.01)
        by_time = {round(s.time, 6): s.position for s in traj.states}
        for t in [0.0, 1.23, 4.56, 7.0, 9.99]:
            t = round(t, 6)
            mirror = round(20.0 - t, 6)
            if t in by_time and mirror in by_time:
                assert by_time[t][0] == pytest.approx(by_time[mirror][0],
                                                      abs=1e-6)

    @pytest.mark.parametrize("v", [10.0, 100.0])
    def test_phase2_mirrors_phase1(self, v):
        traj = mobile_relay_trajectory(relay_geom(v), time_step=0.01)
        by_time = {round(s.time, 6): s.position for s in traj.states}
        for t in [0.5, 3.0, 8.25]:
            p1 = by_time[round(t, 6)]
            p2 = by_time[round(t + 20.0, 6)]
            assert p2[0] == pytest.approx(1000.0 - p1[0], abs=1e-6)

    def test_distance_to_source_v_shaped_in_phase1(self):
        traj = mobile_relay_trajectory(relay_geom(30.0), time_step=0.01)
        distances = [source_distance(s) for s in traj.states
                     if s.time <= 20.0 + 1e-9]
        turn = distances.index(min(distances))
        assert all(a >= b - 1e-9 for a, b in
                   zip(distances[:turn], distances[1:turn + 1]))
        assert all(a <= b + 1e-9 for a, b in
                   zip(distances[turn:], distances[turn + 1:]))

    @pytest.mark.parametrize("v", [0.0, 10.0, 30.0, 100.0])
    def test_passes_validation_at_own_vmax(self, v):
        traj = mobile_relay_trajectory(relay_geom(v), time_step=0.01)
        assert validate_trajectory(traj, v).ok


class TestShapeFunctions:
    """The trajectory generators and the array shape functions are one
    formula: positions and times agree bit for bit."""

    @staticmethod
    def assert_same(traj, geom, xs, times):
        assert [s.time for s in traj.states] == times.tolist()
        assert [s.position for s in traj.states] == \
            [(x, 0.0, geom.uav_altitude) for x in xs.tolist()]
        assert all(type(s.time) is float and type(s.position[0]) is float
                   and type(s.speed) is float for s in traj.states)

    # v=0 (parked), 30 (turnaround at delta/2), 50 (reaches the source
    # with no hover left), 100 (hover), 250 (long hover).
    @pytest.mark.parametrize("v", [0.0, 30.0, 50.0, 100.0, 250.0])
    def test_mobile_relay(self, v):
        geom = relay_geom(v)
        times = cycle_times(geom, 0.01)
        xs = mobile_relay_x(geom, times)
        self.assert_same(mobile_relay_trajectory(geom, 0.01), geom, xs, times)

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
        self.assert_same(ferry_trajectory(geom, 0.01), geom, xs, times)
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
        if v >= 50.0:
            assert ferry_x(geom, times).tolist() == \
                [shuttle(t) for t in times.tolist()]

    def test_ferry_infeasible(self):
        geom = relay_geom(49.0)
        with pytest.raises(FerryInfeasibleError):
            ferry_x(geom, cycle_times(geom, 0.01))

    def test_cycle_times(self):
        times = cycle_times(relay_geom(10.0), 0.01)
        assert times.tolist() == [i * 0.01 for i in range(4001)]
        with pytest.raises(TrajectoryConfigError):
            cycle_times(relay_geom(10.0), 0.3)


class TestFerryTrajectory:
    def test_hover_and_flight_segments(self):
        # v=100, delta=20, R=1000: 10 s hover at each end, 10 s legs.
        traj = ferry_trajectory(relay_geom(100.0), time_step=0.01)
        at_source = [s.time for s in traj.states if s.position[0] == 0.0]
        at_dest = [s.time for s in traj.states if s.position[0] == 1000.0]
        assert max(t for t in at_source if t < 20.0) == pytest.approx(
            10.0, abs=0.011)
        assert min(at_dest) == pytest.approx(20.0, abs=0.011)
        assert max(at_dest) == pytest.approx(30.0, abs=0.011)
        assert traj.states[-1].position[0] == pytest.approx(0.0, abs=1e-6)

    def test_boundary_speed_zero_hover(self):
        traj = ferry_trajectory(relay_geom(50.0), time_step=0.01)
        at_source_p1 = [s.time for s in traj.states
                        if s.position[0] == 0.0 and s.time < 20.0]
        assert max(at_source_p1) == pytest.approx(0.0, abs=0.011)

    def test_infeasible_speed_reports_minimum(self):
        with pytest.raises(FerryInfeasibleError) as exc_info:
            ferry_trajectory(relay_geom(49.0), time_step=0.01)
        assert exc_info.value.minimum_speed == pytest.approx(50.0)

    def test_passes_validation_at_own_vmax(self):
        traj = ferry_trajectory(relay_geom(80.0), time_step=0.01)
        assert validate_trajectory(traj, 80.0).ok


class TestOverflightTrajectory:
    def test_degenerate_single_state(self):
        traj = overflight_trajectory((5.0, 5.0, 50.0), (5.0, 5.0, 50.0),
                                     speed=10.0, time_step=0.1)
        assert len(traj.states) == 1

    def test_final_timestamp(self):
        traj = overflight_trajectory((0.0, 0.0, 100.0), (1000.0, 0.0, 100.0),
                                     speed=20.0, time_step=0.1)
        assert traj.states[-1].time == pytest.approx(50.0, abs=0.1)
        assert traj.states[-1].position[0] == pytest.approx(1000.0, abs=1e-9)

    def test_zero_speed_rejected(self):
        with pytest.raises(TrajectoryConfigError):
            overflight_trajectory((0.0, 0.0, 100.0), (10.0, 0.0, 100.0),
                                  speed=0.0, time_step=0.1)

    @given(speed=st.floats(min_value=0.5, max_value=300.0),
           length=st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_always_passes_validation(self, speed, length):
        traj = overflight_trajectory((0.0, 0.0, 100.0),
                                     (length, 0.0, 100.0),
                                     speed=speed, time_step=0.5)
        assert validate_trajectory(traj, speed).ok


def scalar_position_at(traj, t):
    """Reference: the per-call interpolation that ``position_at`` vectorises."""
    states = traj.states
    if t <= states[0].time:
        return states[0].position
    if t >= states[-1].time:
        return states[-1].position
    i = min(int((t - states[0].time) / traj.time_step), len(states) - 2)
    a, b = states[i], states[i + 1]
    if t > b.time:  # guard against float rounding of the index
        a, b = b, states[i + 2]
    w = (t - a.time) / (b.time - a.time)
    return tuple(pa + w * (pb - pa) for pa, pb in zip(a.position, b.position))


class TestPositionAt:
    @given(start=st.tuples(*[st.floats(-2000.0, 2000.0)] * 3),
           end=st.tuples(*[st.floats(-2000.0, 2000.0)] * 3),
           speed=st.floats(min_value=10.0, max_value=300.0),
           time_step=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
           slot=st.floats(min_value=0.05, max_value=7.0))
    @settings(max_examples=60, deadline=None)
    def test_overflight_matches_scalar_reference(self, start, end, speed,
                                                 time_step, slot):
        traj = overflight_trajectory(start, end, speed, time_step)
        times = np.concatenate([
            traj.states[0].time + np.arange(200) * slot,
            [s.time for s in traj.states[::7]],
            [-1.0, 0.0, traj.states[-1].time, traj.states[-1].time + 5.0]])
        got = traj.position_at(times)
        assert got.shape == (len(times), 3)
        for t, row in zip(times.tolist(), got.tolist()):
            assert tuple(row) == scalar_position_at(traj, t)

    def test_relay_cycle_and_shapes(self):
        traj = mobile_relay_trajectory(relay_geom(30.0), time_step=0.01)
        times = np.linspace(-1.0, 41.0, 997)
        got = traj.position_at(times)
        assert [tuple(r) for r in got.tolist()] == [
            scalar_position_at(traj, t) for t in times.tolist()]
        assert traj.position_at(12.345).tolist() == list(
            scalar_position_at(traj, 12.345))
        assert traj.position_at(times.reshape(-1, 1)).shape == (997, 1, 3)

    def test_single_state_is_constant(self):
        traj = overflight_trajectory((5.0, 5.0, 50.0), (5.0, 5.0, 50.0),
                                     speed=10.0, time_step=0.1)
        got = traj.position_at(np.array([-1.0, 0.0, 3.0]))
        assert got.tolist() == [[5.0, 5.0, 50.0]] * 3


class TestValidateTrajectory:
    def test_flags_flight_segments_at_half_vmax(self):
        traj = mobile_relay_trajectory(relay_geom(100.0), time_step=0.01)
        report = validate_trajectory(traj, 50.0)
        assert not report.ok
        assert report.speed_violations
        # Hover samples are fine; only flight-segment indices appear.
        for i in report.speed_violations:
            a, b = traj.states[i - 1], traj.states[i]
            assert abs(b.position[0] - a.position[0]) > 0.0

    def test_single_jump_violation(self):
        traj = Trajectory(states=(
            UavState(0.0, (0.0, 0.0, 100.0)),
            UavState(1.0, (1e6, 0.0, 100.0)),
        ), time_step=1.0)
        report = validate_trajectory(traj, 100.0)
        assert report.speed_violations == (1,)

    def test_non_monotone_time_flagged(self):
        traj = Trajectory(states=(
            UavState(0.0, (0.0, 0.0, 100.0)),
            UavState(1.0, (1.0, 0.0, 100.0)),
            UavState(0.5, (2.0, 0.0, 100.0)),
        ), time_step=1.0)
        report = validate_trajectory(traj, 100.0)
        assert report.monotone_time_violations == (2,)

    def test_non_uniform_step_flagged(self):
        traj = Trajectory(states=(
            UavState(0.0, (0.0, 0.0, 100.0)),
            UavState(1.0, (1.0, 0.0, 100.0)),
            UavState(2.5, (2.0, 0.0, 100.0)),
        ), time_step=1.0)
        report = validate_trajectory(traj, 100.0)
        assert report.uniform_step_violations == (2,)


class TestTrajectoryCsv:
    def test_round_trippable_columns(self, tmp_path):
        traj = mobile_relay_trajectory(relay_geom(100.0), time_step=0.1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,x_m,y_m,z_m"
        assert len(lines) == len(traj.states) + 1
        t, x, y, z = (float(v) for v in lines[1].split(","))
        assert (t, x, y, z) == (0.0, 500.0, 0.0, 100.0)

    @pytest.mark.parametrize("traj", [
        mobile_relay_trajectory(relay_geom(100.0), time_step=0.01),
        ferry_trajectory(relay_geom(100.0), time_step=0.01),
        # Int geometry: the z and time columns stay ints.
        mobile_relay_trajectory(RelayGeometry(1000, 100, 50, 20), 0.1),
        overflight_trajectory((0, 0, 50), (10, 5, 50), 1, 1),
        overflight_trajectory((3, 4, 5), (3, 4, 5), 1.0, 0.5),
    ], ids=["mobile", "ferry", "int_geometry", "int_overflight", "hover"])
    def test_bytes_match_row_writer(self, tmp_path, traj):
        """The bytes ``csv`` wrote from one [time, x, y, z] row per state."""
        with open(tmp_path / "rows.csv", "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["time_s", "x_m", "y_m", "z_m"])
            writer.writerows([s.time, *s.position] for s in traj.states)
        traj.to_csv(tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
