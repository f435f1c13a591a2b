"""UAV kinematics: the relaying flight shapes and the overflight.

The three flight patterns used by the relaying and dissemination
simulations are the mobile-relay sawtooth, the data-ferry shuttle, and a
constant-velocity overflight.  Each is a closed-form array function of
sample times: ``mobile_relay_x`` and ``ferry_x`` give a relaying cycle's
horizontal positions, keeping to the geometry's max speed, and
``overflight_x`` the (x, y, z) positions of a straight flight.  A relaying
flight is a few legs, each evaluated only at its own sample times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import require
from ._numpy import np


@dataclass(frozen=True)
class RelayGeometry:
    """Source/destination layout and flight constraints for relaying;
    every field is finite."""

    separation: float      # R, m, > 0
    uav_altitude: float    # H, m, > 0
    v_max: float           # m/s, >= 0
    delay_budget: float    # delta, s, > 0 (one phase; a cycle spans 2*delta)

    def __post_init__(self):
        require(self.separation > 0, "{separation} must be > 0")
        require(self.uav_altitude > 0, "{uav_altitude} must be > 0")
        require(self.v_max >= 0, "{v_max} must be >= 0")
        require(self.delay_budget > 0, "{delay_budget} must be > 0")
        for name, value in vars(self).items():
            require(value < math.inf, "{%s} must be finite" % name)

    @property
    def midpoint_slant(self) -> float:
        return math.hypot(self.separation / 2.0, self.uav_altitude)


def _check_step_divides(delta: float, time_step: float) -> int:
    # A zero step divides nothing: its quotient is taken as infinite.
    quotient = delta / time_step if time_step else math.inf
    n = round(quotient) if math.isfinite(quotient) else 0
    require(n >= 1 and abs(n * time_step - delta) <= 1e-9, f"{{time_step}} "
            f"{time_step} does not divide the phase duration {delta}")
    require(2 * delta < math.inf,
            f"{{delay_budget}} {delta} too large: its cycle overflows")
    require(2 * n < np.iinfo(np.intp).max // 8,  # float64 bytes an array holds
            f"{{delay_budget}} {delta} at {{time_step}} {time_step} gives "
            f"{2 * n + 1} samples, more than an array holds")
    return n


def cycle_times(geom: RelayGeometry, time_step: float) -> np.ndarray:
    """Sample times i*time_step of one relaying cycle [0, 2*delta]."""
    n = _check_step_divides(geom.delay_budget, time_step)
    return np.arange(2 * n + 1) * time_step


def _sawtooth(geom: RelayGeometry):
    """``mobile_relay_x``'s legs over one phase, in time since its start,
    and the mirror ``(delta, R)`` through which phase 2 flies them again."""
    delta, half, v = geom.delay_budget, geom.separation / 2.0, geom.v_max
    if v == 0.0:
        legs = [(math.inf, half)]
    elif v * delta / 2.0 >= half:  # fly out, hover overhead, fly back
        t_fly = half / v
        legs = [(t_fly, lambda t: half - v * t), (delta - t_fly, 0.0),
                (math.inf, lambda t: v * (t - (delta - t_fly)))]
    else:  # turn around at delta/2
        legs = [(delta / 2.0, lambda t: half - v * t),
                (math.inf, lambda t: half - v * (delta - t))]
    return legs, (delta, geom.separation)


def _shuttle(geom: RelayGeometry):
    """``ferry_x``'s legs, and no mirror."""
    delta, v, R = geom.delay_budget, geom.v_max, geom.separation
    t_hover = _ferry_hover_time(geom)
    def clip(x):
        return np.minimum(np.maximum(x, 0.0), R)
    return [(t_hover, 0.0), (delta, lambda t: clip(v * (t - t_hover))),
            (delta + t_hover, R),
            (math.inf, lambda t: clip(R - v * (t - delta - t_hover)))], None


def _flight_x(times: np.ndarray, out: np.ndarray, legs, mirror=None):
    """Write into ``out``, and return, the positions at sorted ``times`` of
    a flight of ``legs``: leg ``(end, x)`` flies the times up to ``end``
    that no earlier leg flies, at ``x``, a number or a function of them.  A
    ``mirror`` ``(delta, R)`` flies them again from delta on, at R - x."""
    phases = [(times, out)]
    if mirror:  # phase 1 is t <= delta
        k = times.searchsorted(mirror[0], "right")
        phases = [(times[:k], out[:k]), (times[k:] - mirror[0], out[k:])]
    # A leg overflows only past the cycle's end, as the last one goes on.
    with np.errstate(over="ignore"):
        for t, x_out in phases:
            start = 0
            for end, x in legs:
                stop = max(start, t.searchsorted(end, "right"))
                x_out[start:stop] = x(t[start:stop]) if callable(x) else x
                start = stop
        if mirror:
            np.subtract(mirror[1], out[k:], out=out[k:])
    return out


def _at_times(flight_of, geom: RelayGeometry, times) -> np.ndarray:
    """``_flight_x`` of ``flight_of(geom)`` at ``times`` >= 0 in any order
    and shape."""
    times = np.asarray(times, dtype=float)
    require(np.all(times >= 0), "{times} must be >= 0")
    flat = times.ravel()
    order, x = np.argsort(flat, kind="stable"), np.empty_like(flat)
    x[order] = _flight_x(flat[order], np.empty_like(flat), *flight_of(geom))
    return x.reshape(times.shape)


def mobile_relay_x(geom: RelayGeometry, times: np.ndarray) -> np.ndarray:
    """Horizontal position of the mobile relay (sawtooth) at ``times`` >= 0.

    Phase 1: from the midpoint, fly toward the point above the source at
    v_max; hover there if the speed allows, otherwise turn around at
    delta/2; back at the midpoint exactly at t = delta.  Phase 2 mirrors
    phase 1 through the midpoint plane toward the destination.  Past the
    cycle's end, 2*delta, the last leg goes on, to +-inf where it overflows.
    """
    return _at_times(_sawtooth, geom, times)


def _ferry_hover_time(geom: RelayGeometry) -> float:
    """The ferry's hover time at each endpoint, delta - R/v.  Raises
    ``DomainError`` unless v_max > 0 and v_max*delta >= R."""
    delta, v, R = geom.delay_budget, geom.v_max, geom.separation
    require(v > 0 and v * delta >= R - 1e-9,
            f"ferry infeasible: {{v_max}}={v} m/s cannot cover the "
            f"{{separation}} within the delay budget; minimum feasible speed "
            f"is {R / delta} m/s", "delay_budget")
    return delta - R / v


def ferry_x(geom: RelayGeometry, times: np.ndarray) -> np.ndarray:
    """Horizontal position of the data ferry (shuttle) at ``times`` >= 0.

    Hover above the source for delta - R/v, fly to above the destination
    (R/v), hover there equally long, fly back, and stay above the source
    past the cycle's end.  Raises ``DomainError`` unless v_max > 0 and
    v_max*delta >= R.
    """
    return _at_times(_shuttle, geom, times)


def _overflight_steps(length: float, speed: float, time_step: float):
    """Whole ``time_step``s a flight of ``length`` at ``speed`` takes,
    rounded up; ``math.inf`` where that count passes the largest float,
    as it does where ``speed * time_step`` underflows to 0."""
    step = speed * time_step
    steps = length / step if step else math.inf
    return math.ceil(steps - 1e-12) if math.isfinite(steps) else math.inf


def overflight_x(start: tuple[float, float, float],
                 end: tuple[float, float, float], speed: float,
                 times: np.ndarray) -> np.ndarray:
    """Positions (len(times), 3) of the constant-velocity straight flight
    from ``start`` to ``end`` at ``times`` s after take-off, each
    ``a + min(speed*t/length, 1)*(b - a)``: the UAV stays at ``end`` once
    there, at an infinite time too, and at ``start`` if the two coincide."""
    require(0 < speed < math.inf, "{speed} must be finite and > 0")
    times = np.asarray(times, dtype=float)
    require(np.all(times >= 0), "{times} must be >= 0")
    a, b = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    length = math.dist(start, end)
    require(length < math.inf, "the distance from {start} to {end} must be "
            "finite")
    if length == 0.0:
        return np.tile(a, (len(times), 1))
    # A flight of a few subnormal metres overflows the fraction to inf; the
    # clip to 1 then gives the end, as the scalar formula's inf does.
    with np.errstate(over="ignore"):
        fraction = np.minimum(speed * times / length, 1.0)
    return a + fraction[:, None] * (b - a)
