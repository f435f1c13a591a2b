"""UAV kinematics: the relaying flight shapes and the overflight trajectory.

The three flight patterns used by the relaying and dissemination
simulations are the mobile-relay sawtooth, the data-ferry shuttle, and a
constant-velocity overflight.  The relaying shapes are array functions
of a cycle's sample times (``mobile_relay_x``, ``ferry_x``) that keep to
the geometry's max speed.  The overflight is a ``Trajectory``: a
uniform-step sampled polyline held as arrays of sample times and
(x, y, z) positions.  All of it is whole-array numpy code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
class Trajectory:
    """Uniform-step samples of a UAV flight: ``times`` (n,) in s and
    ``positions`` (n, 3) in m, both float64."""

    times: np.ndarray = field(repr=False, compare=False)
    positions: np.ndarray = field(repr=False, compare=False)
    time_step: float  # s, > 0

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, dtype=float))
        if self.time_step <= 0:
            raise TrajectoryConfigError("time_step must be > 0")
        n = len(self.times) if self.times.ndim == 1 else 0
        if not n or self.positions.shape != (n, 3):
            raise TrajectoryConfigError(
                f"times {self.times.shape} and positions "
                f"{self.positions.shape} must have shapes (n,) and (n, 3), "
                f"n >= 1")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def position_at(self, times) -> np.ndarray:
        """Linearly interpolated positions, shape ``np.shape(times) + (3,)``;
        clamped outside the time span.

        Each sample is ``a + w * (b - a)`` between the samples ``a`` and
        ``b`` that bracket it, with ``w = (t - a.time) / (b.time - a.time)``.
        """
        times = np.asarray(times, dtype=float)
        t = times.reshape(-1)
        sample_times, positions = self.times, self.positions
        last = len(sample_times) - 1
        if last == 0:
            return np.broadcast_to(positions[0], times.shape + (3,)).copy()
        i = np.clip(((t - sample_times[0]) / self.time_step).astype(np.int64),
                    0, last - 1)
        i += t > sample_times[i + 1]  # guard against float rounding of the index
        i = np.minimum(i, last - 1)  # only moves samples clamped above
        a, b = sample_times[i], sample_times[i + 1]
        w = (t - a) / (b - a)
        out = positions[i] + w[:, None] * (positions[i + 1] - positions[i])
        out[t <= sample_times[0]] = positions[0]
        out[t >= sample_times[-1]] = positions[-1]
        return out.reshape(times.shape + (3,))


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


def _ferry_hover_time(geom: RelayGeometry) -> float:
    """The ferry's hover time at each endpoint, delta - R/v.  Raises
    ``FerryInfeasibleError`` unless v_max*delta >= R."""
    delta, v, R = geom.delay_budget, geom.v_max, geom.separation
    if v * delta < R - 1e-9:
        raise FerryInfeasibleError(v, R / delta)
    return delta - R / v


def ferry_x(geom: RelayGeometry, times: np.ndarray) -> np.ndarray:
    """Horizontal position of the data ferry (shuttle) at ``times``.

    Hover above the source for delta - R/v, fly to above the destination
    (R/v), hover there equally long, fly back.  Raises
    ``FerryInfeasibleError`` unless v_max*delta >= R.
    """
    delta = geom.delay_budget
    v, R = geom.v_max, geom.separation
    t_hover = _ferry_hover_time(geom)
    x = np.where(times <= t_hover, 0.0,
                 np.where(times <= delta, v * (times - t_hover),
                          np.where(times <= delta + t_hover, R,
                                   R - v * (times - delta - t_hover))))
    return np.minimum(np.maximum(x, 0.0), R)


def _overflight_steps(length: float, speed: float, time_step: float) -> int:
    """Time steps of ``overflight_trajectory`` over a path of ``length``;
    its duration is this many ``time_step``s."""
    return math.ceil(length / (speed * time_step) - 1e-12)


def overflight_trajectory(start: tuple[float, float, float],
                          end: tuple[float, float, float],
                          speed: float, time_step: float) -> Trajectory:
    """Constant-velocity straight path from start to end."""
    for name, value in (("speed", speed), ("time_step", time_step)):
        if not (math.isfinite(value) and value > 0):
            raise TrajectoryConfigError(f"{name} must be finite and > 0")
    a, b = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    length = math.dist(start, end)
    if length == 0.0:
        return Trajectory(np.zeros(1), a[None, :], time_step)
    t = np.arange(_overflight_steps(length, speed, time_step) + 1) * time_step
    positions = a + np.minimum(speed * t / length, 1.0)[:, None] * (b - a)
    return Trajectory(t, positions, time_step)
