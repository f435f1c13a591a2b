"""UAV kinematics: trajectory types, generators, and validation.

Trajectories are uniform-step sampled polylines (discrete-time state
sequences) subject to a max-speed transition constraint.  Generators
cover the three flight patterns used by the relaying and dissemination
simulations: the mobile-relay sawtooth, the data-ferry shuttle, and a
constant-velocity overflight.  The relaying shapes are array functions
of the sample times (``mobile_relay_x``, ``ferry_x``); the trajectory
generators build their states from those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvfile import write_csv

SPEED_TOLERANCE = 1e-9  # slack on the per-step displacement bound, m/s


class TrajectoryConfigError(ValueError):
    """Raised for invalid trajectory generator parameters."""


class FerryInfeasibleError(TrajectoryConfigError):
    """Ferry shuttle cannot complete a cycle at the given speed."""

    def __init__(self, v_max: float, minimum_speed: float):
        self.minimum_speed = minimum_speed
        super().__init__(
            f"ferry infeasible: v_max={v_max} m/s cannot cover the "
            f"separation within the delay budget; minimum feasible speed "
            f"is {minimum_speed} m/s")


@dataclass(frozen=True)
class UavState:
    """Kinematic sample: time, 3D position, instantaneous speed."""

    time: float                          # s
    position: tuple[float, float, float]  # m
    speed: float = 0.0                   # m/s, >= 0


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered uniform-step sequence of UAV states."""

    states: tuple[UavState, ...]
    time_step: float  # s, > 0

    def __post_init__(self):
        if self.time_step <= 0:
            raise TrajectoryConfigError("time_step must be > 0")
        if not self.states:
            raise TrajectoryConfigError("trajectory must contain states")

    @property
    def duration(self) -> float:
        return self.states[-1].time - self.states[0].time

    def position_at(self, times) -> np.ndarray:
        """Linearly interpolated positions, shape ``np.shape(times) + (3,)``;
        clamped outside the time span.

        Each sample is ``a + w * (b - a)`` between the states ``a`` and ``b``
        that bracket it, with ``w = (t - a.time) / (b.time - a.time)``.
        """
        times = np.asarray(times, dtype=float)
        t = times.reshape(-1)
        state_times = np.array([s.time for s in self.states])
        positions = np.array([s.position for s in self.states], dtype=float)
        last = len(state_times) - 1
        if last == 0:
            return np.broadcast_to(positions[0], times.shape + (3,)).copy()
        i = np.clip(((t - state_times[0]) / self.time_step).astype(np.int64),
                    0, last - 1)
        i += t > state_times[i + 1]  # guard against float rounding of the index
        i = np.minimum(i, last - 1)  # only moves samples clamped above
        a, b = state_times[i], state_times[i + 1]
        w = (t - a) / (b - a)
        out = positions[i] + w[:, None] * (positions[i + 1] - positions[i])
        out[t <= state_times[0]] = positions[0]
        out[t >= state_times[-1]] = positions[-1]
        return out.reshape(times.shape + (3,))

    def to_csv(self, path) -> None:
        """Write columns time_s, x_m, y_m, z_m."""
        # One array per column, so that a column of ints stays ints.
        write_csv(path, ["time_s", "x_m", "y_m", "z_m"],
                  [np.array(column) for column in
                   zip(*((s.time, *s.position) for s in self.states))])


@dataclass(frozen=True)
class RelayGeometry:
    """Source/destination layout and flight constraints for relaying."""

    separation: float      # R, m, > 0
    uav_altitude: float    # H, m, > 0
    v_max: float           # m/s, >= 0
    delay_budget: float    # delta, s, > 0 (one phase; a cycle spans 2*delta)

    def __post_init__(self):
        if self.separation <= 0:
            raise TrajectoryConfigError("separation must be > 0")
        if self.uav_altitude <= 0:
            raise TrajectoryConfigError("uav_altitude must be > 0")
        if self.v_max < 0:
            raise TrajectoryConfigError("v_max must be >= 0")
        if self.delay_budget <= 0:
            raise TrajectoryConfigError("delay_budget must be > 0")

    @property
    def source_position(self) -> tuple[float, float, float]:
        return (0.0, 0.0, 0.0)

    @property
    def destination_position(self) -> tuple[float, float, float]:
        return (self.separation, 0.0, 0.0)

    @property
    def midpoint_position(self) -> tuple[float, float, float]:
        """UAV start/static position: above the midpoint at altitude H."""
        return (self.separation / 2.0, 0.0, self.uav_altitude)

    @property
    def midpoint_slant(self) -> float:
        return math.hypot(self.separation / 2.0, self.uav_altitude)


def _check_step_divides(delta: float, time_step: float) -> int:
    n = round(delta / time_step)
    if n < 1 or abs(n * time_step - delta) > 1e-9:
        raise TrajectoryConfigError(
            f"time_step {time_step} does not divide the phase duration {delta}")
    return n


def cycle_times(geom: RelayGeometry, time_step: float) -> np.ndarray:
    """Sample times i*time_step of one relaying cycle [0, 2*delta]."""
    n = _check_step_divides(geom.delay_budget, time_step)
    return np.arange(2 * n + 1) * time_step


def mobile_relay_x(geom: RelayGeometry, times: np.ndarray) -> np.ndarray:
    """Horizontal position of the mobile relay (sawtooth) at ``times``.

    Phase 1: from the midpoint, fly toward the point above the source at
    v_max; hover there if the speed allows, otherwise turn around at
    delta/2; back at the midpoint exactly at t = delta.  Phase 2 mirrors
    phase 1 through the midpoint plane toward the destination.
    """
    delta = geom.delay_budget
    half = geom.separation / 2.0
    v = geom.v_max
    phase1 = times <= delta
    t = np.where(phase1, times, times - delta)
    if v == 0.0:
        x = np.full_like(t, half)
    elif v * delta / 2.0 >= half:
        t_fly = half / v
        x = np.where(t <= t_fly, half - v * t,
                     np.where(t <= delta - t_fly, 0.0,
                              v * (t - (delta - t_fly))))
    else:
        x = np.where(t <= delta / 2.0, half - v * t, half - v * (delta - t))
    return np.where(phase1, x, geom.separation - x)


def ferry_x(geom: RelayGeometry, times: np.ndarray) -> np.ndarray:
    """Horizontal position of the data ferry (shuttle) at ``times``.

    Hover above the source for delta - R/v, fly to above the destination
    (R/v), hover there equally long, fly back.  Raises
    ``FerryInfeasibleError`` unless v_max*delta >= R.
    """
    delta = geom.delay_budget
    v, R = geom.v_max, geom.separation
    if v * delta < R - 1e-9:
        raise FerryInfeasibleError(v, R / delta)
    t_hover = delta - R / v
    x = np.where(times <= t_hover, 0.0,
                 np.where(times <= delta, v * (times - t_hover),
                          np.where(times <= delta + t_hover, R,
                                   R - v * (times - delta - t_hover))))
    return np.minimum(np.maximum(x, 0.0), R)


def _shuttle_trajectory(xs: np.ndarray, times: np.ndarray, altitude: float,
                        time_step: float) -> Trajectory:
    """States along the x axis; a state's speed is that of the step
    leaving it (the last state repeats the step into it)."""
    speeds = np.abs(np.diff(xs)) / time_step  # a cycle has >= 3 samples
    speeds = np.append(speeds, speeds[-1])
    states = tuple(UavState(time=t, position=(x, 0.0, altitude), speed=v)
                   for t, x, v in zip(times.tolist(), xs.tolist(),
                                      speeds.tolist()))
    return Trajectory(states=states, time_step=time_step)


def mobile_relay_trajectory(geom: RelayGeometry, time_step: float) -> Trajectory:
    """One mobile-relaying cycle over [0, 2*delta] (see ``mobile_relay_x``)."""
    times = cycle_times(geom, time_step)
    return _shuttle_trajectory(mobile_relay_x(geom, times), times,
                               geom.uav_altitude, time_step)


def ferry_trajectory(geom: RelayGeometry, time_step: float) -> Trajectory:
    """One data-ferry shuttle cycle over [0, 2*delta] (see ``ferry_x``)."""
    times = cycle_times(geom, time_step)
    return _shuttle_trajectory(ferry_x(geom, times), times,
                               geom.uav_altitude, time_step)


def _overflight_steps(length: float, speed: float, time_step: float) -> int:
    """Time steps of ``overflight_trajectory`` over a path of ``length``;
    its duration is this many ``time_step``s."""
    return math.ceil(length / (speed * time_step) - 1e-12)


def overflight_trajectory(start: tuple[float, float, float],
                          end: tuple[float, float, float],
                          speed: float, time_step: float) -> Trajectory:
    """Constant-velocity straight path from start to end."""
    if speed <= 0:
        raise TrajectoryConfigError("speed must be > 0")
    length = math.dist(start, end)
    if length == 0.0:
        return Trajectory(states=(UavState(0.0, tuple(start), 0.0),),
                          time_step=time_step)
    n = _overflight_steps(length, speed, time_step)
    states = []
    for i in range(n + 1):
        t = i * time_step
        frac = min(speed * t / length, 1.0)
        pos = tuple(a + frac * (b - a) for a, b in zip(start, end))
        states.append(UavState(time=t, position=pos,
                               speed=speed if i < n else 0.0))
    return Trajectory(states=tuple(states), time_step=time_step)


@dataclass(frozen=True)
class TrajectoryValidation:
    """Per-index invariant violations; empty everywhere iff valid."""

    monotone_time_violations: tuple[int, ...] = ()
    uniform_step_violations: tuple[int, ...] = ()
    speed_violations: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.monotone_time_violations
                    or self.uniform_step_violations
                    or self.speed_violations)


def validate_trajectory(traj: Trajectory, v_max: float) -> TrajectoryValidation:
    """Check monotone time, uniform step, and the speed transition bound.

    Violation indices refer to the later state of each offending pair.
    """
    bad_time, bad_step, bad_speed = [], [], []
    for i in range(1, len(traj.states)):
        a, b = traj.states[i - 1], traj.states[i]
        dt = b.time - a.time
        if dt <= 0:
            bad_time.append(i)
            continue
        if abs(dt - traj.time_step) > 1e-9:
            bad_step.append(i)
        displacement = math.dist(a.position, b.position)
        if displacement / dt > v_max + SPEED_TOLERANCE:
            bad_speed.append(i)
    return TrajectoryValidation(tuple(bad_time), tuple(bad_step), tuple(bad_speed))
