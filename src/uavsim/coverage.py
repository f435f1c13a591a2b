"""Altitude-coverage tradeoff for an aerial base station.

Higher altitude raises free-space loss but steepens elevation angles and
so raises the line-of-sight probability; the expected path loss mixes
LoS and NLoS excess losses by that probability.  Coverage radius is the
largest ground range whose expected loss stays under a threshold, and
the optimal altitude is the first maximum of the radius over a grid.

The expected loss is one numpy kernel of floats or arrays, built from
``channel``'s slant-distance and free-space formulas and this module's
LoS sigmoid; ``expected_path_loss`` checks its inputs and calls it.  The
receiver is on the ground, so a link's height is the altitude.  The LoS
model owns its domain: it rejects, when built, a sigmoid whose exponent
at elevation 0, its largest, overflows ``exp``.  A coverage curve is two
float arrays: ``altitude_grid`` and the ``coverage_radii`` of its
altitudes, which one bisection computes on all altitudes in lockstep.
The module only computes: ``experiment`` writes the curve and picks its
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _check_frequency, _free_space_loss, _slant

MAX_GRID_POINTS = 10 ** 6  # altitudes in one coverage curve
_GRID_CHUNK = 4096  # altitudes summed per np.add.accumulate call
_UNBOUNDED = 1e9  # m; bracketing that passes this range returns there
_TOLERANCE = 0.1  # m; the bisection stops at a bracket this narrow


@dataclass(frozen=True)
class LosProbabilityModel:
    """Elevation-angle sigmoid P_LoS(theta) = 1/(1 + a*exp(-b*(theta - a))).

    The exponent is largest at elevation 0, where it is ``a * b``; a model
    whose ``exp(a * b)`` overflows is rejected, so no elevation in
    [0, 90] degrees overflows it.
    """

    s_curve_a: float
    s_curve_b: float

    def __post_init__(self):
        for name in ("s_curve_a", "s_curve_b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        exponent = self.s_curve_a * self.s_curve_b
        with np.errstate(over="ignore"):  # an overflow is the error raised
            if not np.isfinite(np.exp(float(exponent))):
                raise ValueError(f"s_curve_a * s_curve_b = {exponent:g} "
                                 f"overflows exp() in the LoS probability at "
                                 f"elevation 0")

    def los_probability(self, elevation_deg):
        """P_LoS at each elevation in degrees."""
        a, b = self.s_curve_a, self.s_curve_b
        with np.errstate(over="ignore"):  # a * exp(x) may overflow to inf
            return 1.0 / (1.0 + a * np.exp(-b * (elevation_deg - a)))


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


def _check_altitude(altitude) -> None:
    if np.any(altitude <= 0):
        raise ValueError("altitude must be > 0")


def _expected_loss(altitude, ground_range, frequency: float,
                   los: LosProbabilityModel, excess: ExcessLoss):
    """``expected_path_loss`` of altitudes, ground ranges and a frequency
    that are checked: the LoS-probability-weighted mean of the LoS and
    NLoS losses, dB."""
    fspl = _free_space_loss(_slant(ground_range, altitude), frequency)
    p_los = los.los_probability(np.degrees(np.arctan2(altitude,
                                                      ground_range)))
    # A loss that overflows to inf, weighted by a LoS probability of
    # exactly 0 or 1, makes 0 * inf = nan, which no threshold covers, as
    # none covers inf.  Only such products are nan; finite losses keep
    # every bit.
    with np.errstate(invalid="ignore"):
        return (p_los * (fspl + excess.eta_los)
                + (1.0 - p_los) * (fspl + excess.eta_nlos))


def expected_path_loss(altitude, ground_range, frequency: float,
                       los: LosProbabilityModel, excess: ExcessLoss):
    """LoS-probability-weighted mean path loss in dB of every (altitude,
    ground range) pair of the two broadcast floats or arrays."""
    altitude = np.asarray(altitude, dtype=float)
    ground_range = np.asarray(ground_range, dtype=float)
    _check_altitude(altitude)
    if np.any(ground_range < 0):
        raise ValueError("ground_range must be >= 0")
    _check_frequency(frequency)
    return _expected_loss(altitude, ground_range, frequency, los, excess)


def coverage_radii(altitudes, max_path_loss: float, frequency: float,
                   los: LosProbabilityModel,
                   excess: ExcessLoss) -> np.ndarray:
    """The coverage radius at each of the altitudes: the largest ground
    range whose expected loss is <= ``max_path_loss``, by bisection.

    The expected loss is ``fspl + eta_nlos - p_los*(eta_nlos - eta_los)``
    with ``p_los`` non-increasing in range and ``eta_nlos >= eta_los``, so
    it is non-decreasing in range at fixed altitude (to within rounding),
    which is what the bisection needs.  All altitudes run in lockstep,
    each taking the steps it would take alone: the nadir test, bracketing
    by doubling, and bisection.  The altitudes and brackets still at a
    step are held in compact arrays and evaluated in one call of the loss
    kernel; the inputs are checked once, as ``expected_path_loss`` checks
    them.
    """
    h = np.asarray(altitudes, dtype=float)
    _check_altitude(h)
    _check_frequency(frequency)

    def covered(heights, ranges):
        return _expected_loss(heights, ranges, frequency, los,
                              excess) <= max_path_loss

    radii = np.zeros_like(h)
    # Bracket the crossing by doubling.  An altitude leaves with the first
    # bracket whose loss exceeds the threshold.
    index = np.flatnonzero(covered(h, np.zeros_like(h)))
    hi = np.maximum(h[index], 1.0)
    left, brackets = [index[:0]], [hi[:0]]  # empty when none is covered
    while index.size:
        inside = covered(h[index], hi)
        left.append(index[~inside])
        brackets.append(hi[~inside])
        index, hi = index[inside], 2.0 * hi[inside]
        # The threshold is never reached within any practical range.
        far = hi > _UNBOUNDED
        radii[index[far]] = hi[far]
        index, hi = index[~far], hi[~far]
    index, hi = np.concatenate(left), np.concatenate(brackets)
    heights, lo = h[index], np.zeros_like(hi)
    live = hi - lo > _TOLERANCE
    while True:
        if not live.all():
            radii[index[~live]] = lo[~live]
            index, heights, lo, hi = (index[live], heights[live], lo[live],
                                      hi[live])
        if not index.size:
            return radii
        mid = 0.5 * (lo + hi)
        inside = covered(heights, mid)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
        live = hi - lo > _TOLERANCE


def altitude_grid(altitude_range: tuple[float, float],
                  grid_step: float) -> np.ndarray:
    """The float altitudes of a coverage curve: ``lo``, then each the one
    before plus ``grid_step``, while within ``hi`` (and 1e-12 m beyond it,
    for rounding), so the grid carries the rounding of that running sum.
    More than ``MAX_GRID_POINTS`` of them is a ``ValueError``, as is a
    step too small to advance the running sum."""
    lo, hi = altitude_range
    if not 0 < lo <= hi < math.inf:
        raise ValueError("altitude_range must satisfy 0 < lo <= hi < inf")
    if not grid_step > 0:
        raise ValueError("grid_step must be > 0")
    top = hi + 1e-12
    chunks, held, start = [], 0, lo
    while True:
        # np.add.accumulate adds in sequence, so a chunk carries the
        # rounding of the running sum h += grid_step bit for bit; the
        # chunks hold at most MAX_GRID_POINTS + 1 altitudes together.
        chunk = np.full(min(_GRID_CHUNK, MAX_GRID_POINTS + 1 - held),
                        grid_step, dtype=float)
        chunk[0] = start
        with np.errstate(over="ignore"):  # a sum past the largest float
            np.add.accumulate(chunk, out=chunk)
        # The sum never decreases, so the altitudes within top come first.
        within = int(chunk.searchsorted(top, side="right"))
        chunks.append(chunk[:within])
        held += within
        if within < chunk.size:
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        if held > MAX_GRID_POINTS:
            raise ValueError(f"more than {MAX_GRID_POINTS} altitudes from "
                             f"{lo} to {hi} in steps of grid_step "
                             f"{grid_step}")
        start = float(chunk[-1]) + grid_step
