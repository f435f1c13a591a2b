"""Altitude-coverage tradeoff for an aerial base station.

Higher altitude raises free-space loss but steepens elevation angles and
so raises the line-of-sight probability; the expected path loss mixes
LoS and NLoS excess losses by that probability.  Coverage radius is the
largest ground range whose expected loss stays under a threshold, and
optimal altitude maximizes that radius over a grid.

The expected loss is one numpy function of floats or arrays.  The radii
of a whole altitude grid come from one bisection run on all altitudes in
lockstep, which takes the steps each altitude would take alone; the
bisection relies on the loss being non-decreasing in ground range, which
the model guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvfile import write_csv
from .channel import LinkGeometry, free_space_path_loss

MAX_GRID_POINTS = 10 ** 6  # altitudes in one coverage curve
_UNBOUNDED = 1e9  # m; bracketing that passes this range returns there


def _exp(x):
    """``np.exp``, raising ``OverflowError`` where it overflows, as
    ``math.exp`` does."""
    with np.errstate(over="raise"):
        try:
            return np.exp(x)
        except FloatingPointError:
            raise OverflowError("math range error") from None


@dataclass(frozen=True)
class LosProbabilityModel:
    """Elevation-angle sigmoid P_LoS(theta) = 1/(1 + a*exp(-b*(theta - a)))."""

    s_curve_a: float
    s_curve_b: float

    def __post_init__(self):
        for name in ("s_curve_a", "s_curve_b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    def los_probability(self, elevation_deg):
        """P_LoS at each elevation in degrees; ``OverflowError`` where
        exp(-b*(theta - a)) overflows."""
        a, b = self.s_curve_a, self.s_curve_b
        with np.errstate(over="ignore"):  # a * exp(x) may overflow to inf
            return 1.0 / (1.0 + a * _exp(-b * (elevation_deg - a)))


@dataclass(frozen=True)
class ExcessLoss:
    """Mean excess losses beyond free space, dB; NLoS strictly worse."""

    eta_los: float
    eta_nlos: float

    def __post_init__(self):
        if self.eta_los < 0:
            raise ValueError("eta_los must be >= 0")
        if self.eta_nlos < self.eta_los:
            raise ValueError("eta_nlos must be >= eta_los")


def _expected_loss(fspl, elevation_deg, los: LosProbabilityModel,
                   excess: ExcessLoss):
    """The LoS-probability-weighted mean of the LoS and NLoS losses, dB."""
    p_los = los.los_probability(elevation_deg)
    return (p_los * (fspl + excess.eta_los)
            + (1.0 - p_los) * (fspl + excess.eta_nlos))


def expected_path_loss(altitude, ground_range, frequency: float,
                       los: LosProbabilityModel, excess: ExcessLoss):
    """LoS-probability-weighted mean path loss in dB of every (altitude,
    ground range) pair of the two broadcast floats or arrays."""
    altitude = np.asarray(altitude, dtype=float)
    ground_range = np.asarray(ground_range, dtype=float)
    if np.any(altitude <= 0):
        raise ValueError("altitude must be > 0")
    if np.any(ground_range < 0):
        raise ValueError("ground_range must be >= 0")
    geometry = LinkGeometry(horizontal_separation=ground_range,
                            transmitter_height=altitude)
    return _expected_loss(free_space_path_loss(geometry, frequency),
                          np.degrees(np.arctan2(altitude, ground_range)),
                          los, excess)


def _coverage_radii(altitudes: np.ndarray, max_path_loss: float,
                    frequency: float, los: LosProbabilityModel,
                    excess: ExcessLoss, tolerance: float = 0.1) -> np.ndarray:
    """``coverage_radius`` of every altitude, all altitudes in lockstep.

    Each altitude takes the steps it would take alone: the nadir test,
    bracketing by doubling, and bisection.  The altitudes still at a step
    are evaluated in one array call.
    """
    h = np.asarray(altitudes, dtype=float)

    def losses(index, r):
        return expected_path_loss(h[index], r, frequency, los, excess)

    radii = np.zeros_like(h)
    every = np.arange(h.size)
    bisected = losses(every, np.zeros_like(h)) <= max_path_loss
    # Bracket the crossing by doubling.
    hi = np.maximum(h, 1.0)
    index = every[bisected]
    while index.size:
        index = index[losses(index, hi[index]) <= max_path_loss]
        hi[index] *= 2.0
        # The threshold is never reached within any practical range.
        unbounded = index[hi[index] > _UNBOUNDED]
        radii[unbounded] = hi[unbounded]
        bisected[unbounded] = False
        index = index[hi[index] <= _UNBOUNDED]
    lo = np.zeros_like(h)
    index = every[bisected & (hi - lo > tolerance)]
    while index.size:
        mid = 0.5 * (lo[index] + hi[index])
        inside = losses(index, mid) <= max_path_loss
        lo[index[inside]] = mid[inside]
        hi[index[~inside]] = mid[~inside]
        index = index[hi[index] - lo[index] > tolerance]
    radii[bisected] = lo[bisected]
    return radii


def coverage_radius(altitude: float, max_path_loss: float, frequency: float,
                    los: LosProbabilityModel, excess: ExcessLoss,
                    tolerance: float = 0.1) -> float:
    """Largest ground range with expected loss <= max_path_loss, by bisection.

    The expected loss is ``fspl + eta_nlos - p_los*(eta_nlos - eta_los)``
    with ``p_los`` non-increasing in range and ``eta_nlos >= eta_los``, so
    it is non-decreasing in range at fixed altitude (to within rounding),
    which is what the bisection needs.
    """
    return float(_coverage_radii(np.array([altitude], dtype=float),
                                 max_path_loss, frequency, los, excess,
                                 tolerance)[0])


def _altitude_grid(altitude_range: tuple[float, float],
                   grid_step: float) -> list[float]:
    """The altitudes of ``coverage_curve``.  More than ``MAX_GRID_POINTS``
    of them is a ``ValueError``, as is a step too small to advance the
    running sum."""
    lo, hi = altitude_range
    if not 0 < lo <= hi < math.inf:
        raise ValueError("altitude_range must satisfy 0 < lo <= hi < inf")
    if not grid_step > 0:
        raise ValueError("grid_step must be > 0")
    grid = []
    h = lo
    while h <= hi + 1e-12:
        if len(grid) == MAX_GRID_POINTS:
            raise ValueError(f"more than {MAX_GRID_POINTS} altitudes from "
                             f"{lo} to {hi} in steps of grid_step "
                             f"{grid_step}")
        grid.append(h)
        h += grid_step
    return grid


def coverage_curve(altitude_range: tuple[float, float], max_path_loss: float,
                   frequency: float, los: LosProbabilityModel,
                   excess: ExcessLoss,
                   grid_step: float = 1.0) -> list[tuple[float, float]]:
    """(altitude, coverage radius) rows over the grid lo, lo + step, ... <= hi.

    Each altitude is the previous one plus ``grid_step``, so the grid
    carries the rounding of that running sum.
    """
    altitudes = _altitude_grid(altitude_range, grid_step)
    radii = _coverage_radii(np.array(altitudes), max_path_loss, frequency,
                            los, excess)
    return list(zip(altitudes, radii.tolist()))


def optimal_altitude(altitude_range: tuple[float, float], max_path_loss: float,
                     frequency: float, los: LosProbabilityModel,
                     excess: ExcessLoss,
                     grid_step: float = 1.0) -> tuple[float, float]:
    """Grid-search altitude maximizing the coverage radius.

    Ties break toward the lowest altitude.  Returns (altitude, radius).
    """
    return max(coverage_curve(altitude_range, max_path_loss, frequency, los,
                              excess, grid_step), key=lambda row: row[1])


def write_coverage_csv(rows, path) -> None:
    """Rows of (altitude_m, coverage_radius_m)."""
    write_csv(path, ["altitude_m", "coverage_radius_m"], zip(*rows))
