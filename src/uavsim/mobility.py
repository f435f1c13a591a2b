"""UAV kinematics: the relaying flight shapes and the overflight.

The three flight patterns used by the relaying and dissemination
simulations are the mobile-relay sawtooth, the data-ferry shuttle, and a
constant-velocity overflight.  Each is a closed-form array function of
sample times: ``mobile_relay_x`` and ``ferry_x`` give a relaying cycle's
horizontal positions, keeping to the geometry's max speed, and
``overflight_x`` the (x, y, z) positions of a straight flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        # np.where evaluates each leg at every sample: at a huge speed a leg
        # overflows at the samples outside its own interval, which it does
        # not give.
        with np.errstate(over="ignore"):
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
    """Whole ``time_step``s a flight of ``length`` at ``speed`` takes,
    rounded up."""
    return math.ceil(length / (speed * time_step) - 1e-12)


def overflight_x(start: tuple[float, float, float],
                 end: tuple[float, float, float], speed: float,
                 times: np.ndarray) -> np.ndarray:
    """Positions (len(times), 3) of the constant-velocity straight flight
    from ``start`` to ``end`` at ``times`` s after take-off, each
    ``a + min(speed*t/length, 1)*(b - a)``: the UAV stays at ``end`` once
    there, and at ``start`` if the two coincide."""
    if not (math.isfinite(speed) and speed > 0):
        raise TrajectoryConfigError("speed must be finite and > 0")
    times = np.asarray(times, dtype=float)
    if not np.all(times >= 0):
        raise TrajectoryConfigError("times must be >= 0")
    a, b = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    length = math.dist(start, end)
    if length == 0.0:
        return np.tile(a, (len(times), 1))
    # A flight of a few subnormal metres overflows the fraction to inf; the
    # clip to 1 then gives the end, as the scalar formula's inf does.
    with np.errstate(over="ignore"):
        fraction = np.minimum(speed * times / length, 1.0)
    return a + fraction[:, None] * (b - a)
