"""Altitude-coverage tradeoff for an aerial base station.

Higher altitude raises free-space loss but steepens elevation angles and
so raises the line-of-sight probability; the expected path loss mixes
LoS and NLoS excess losses by that probability.  Coverage radius is the
largest ground range whose expected loss stays under a threshold, and
the optimal altitude is the first maximum of the radius over a grid.

The expected loss is one numpy kernel of floats or arrays, built from
``channel.slant_distance``, the unchecked form of
``channel.free_space_path_loss`` and ``los_probability``.  It takes the
LoS sigmoid and the mean excess losses as two numbers each, ``s_curve_a,
s_curve_b`` and ``eta_los, eta_nlos``, which ``check_los_model`` and
``check_excess_loss`` check.  ``coverage_radii`` checks its inputs once,
before the bisection, and not on each of the bisection's calls.  The
receiver is on the ground, so a link's height is the altitude.  A
coverage curve is two float arrays: ``altitude_grid`` and the
``coverage_radii`` of its altitudes, which one bisection computes on all
altitudes in lockstep.  ``check_carrier`` refuses a carrier whose
free-space loss underflows to -inf on the shortest link, as a threshold
would cover any range then.  The module only computes: ``experiment``
writes the curve and picks its optimum.
"""

from __future__ import annotations

import math

from . import require
from ._numpy import np
from .channel import _check_frequency, _free_space_loss, slant_distance

MAX_GRID_POINTS = 10 ** 6  # altitudes in one coverage curve
_GRID_CHUNK = 4096  # altitudes summed per np.add.accumulate call
_UNBOUNDED = 1e9  # m; bracketing that passes this range returns there
_TOLERANCE = 0.1  # m; the bisection stops at a bracket this narrow


def check_los_model(s_curve_a: float, s_curve_b: float) -> None:
    """Raises ``DomainError`` unless a, b > 0 and the sigmoid's largest
    exponential, exp(a * b) at elevation 0, is finite, as all then are."""
    require(s_curve_a > 0, "{s_curve_a} must be > 0")
    require(s_curve_b > 0, "{s_curve_b} must be > 0")
    exponent = s_curve_a * s_curve_b
    with np.errstate(over="ignore"):  # an overflow is the error raised
        require(np.isfinite(np.exp(float(exponent))),
                f"{{s_curve_a}} * {{s_curve_b}} = {exponent:g} overflows "
                f"exp() in the LoS probability at elevation 0")


def los_probability(elevation_deg, s_curve_a: float, s_curve_b: float):
    """P_LoS at each elevation theta in degrees, the sigmoid 1/(1 +
    a*exp(-b*(theta - a))) of an a, b that ``check_los_model`` passes."""
    a, b = s_curve_a, s_curve_b
    with np.errstate(over="ignore"):  # a * exp(x) may overflow to inf
        return 1.0 / (1.0 + a * np.exp(-b * (elevation_deg - a)))


def check_excess_loss(eta_los: float, eta_nlos: float) -> None:
    """Raises ``DomainError`` unless the mean excess losses beyond free
    space, dB, satisfy ``0 <= eta_los <= eta_nlos``: NLoS is never better
    than LoS."""
    require(eta_los >= 0, "{eta_los} must be >= 0")
    require(eta_nlos >= eta_los, "{eta_nlos} must be >= {eta_los}")


def check_carrier(altitudes, frequency: float) -> None:
    """Raises ``DomainError`` for a frequency <= 0, or where the free-space
    loss at the lowest altitude's nadir, the shortest link and so the
    smallest loss, underflows to -inf: 4*pi*d*f/c rounds to 0 there."""
    _check_frequency(frequency)
    require(not np.size(altitudes) or _free_space_loss(
        np.min(altitudes), frequency) > -math.inf,
        f"path loss at the lowest altitude's nadir underflows at "
        f"{{frequency}} {frequency:g} Hz")


def _expected_loss(altitude, ground_range, frequency: float,
                   s_curve_a: float, s_curve_b: float, eta_los: float,
                   eta_nlos: float):
    """The expected path loss in dB of every (altitude, ground range) pair
    of the two broadcast floats or arrays, checked by the caller: the
    LoS-probability-weighted mean of the LoS and NLoS losses, whose mean
    excess losses beyond free space are ``eta_los`` and ``eta_nlos``."""
    fspl = _free_space_loss(slant_distance(ground_range, altitude), frequency)
    p_los = los_probability(np.degrees(np.arctan2(altitude, ground_range)),
                            s_curve_a, s_curve_b)
    # A loss that overflows to inf, weighted by a LoS probability of
    # exactly 0 or 1, makes 0 * inf = nan, which no threshold covers, as
    # none covers inf.  Only such products are nan; finite losses keep
    # every bit.
    with np.errstate(invalid="ignore"):
        return (p_los * (fspl + eta_los)
                + (1.0 - p_los) * (fspl + eta_nlos))


def coverage_radii(altitude, max_path_loss: float, frequency: float,
                   s_curve_a: float, s_curve_b: float, eta_los: float,
                   eta_nlos: float) -> np.ndarray:
    """The coverage radius at each of the 1-D ``altitude`` (m, > 0): the
    largest ground range whose expected loss is <= ``max_path_loss``, by
    bisection.

    The expected loss is ``fspl + eta_nlos - p_los*(eta_nlos - eta_los)``
    with ``p_los`` non-increasing in range and ``eta_nlos >= eta_los``, so
    it is non-decreasing in range at fixed altitude (to within rounding),
    which is what the bisection needs.  All altitudes run in lockstep,
    each taking the steps it would take alone: the nadir test, bracketing
    by doubling, and bisection.  The altitudes and brackets still at a
    step are held in compact arrays and evaluated in one call of the loss
    kernel; the inputs are checked once, the carrier by ``check_carrier``.
    Only an infinite threshold covers an infinite loss (an infinite
    altitude, frequency or excess loss); past 1e9 m the radius is the next
    doubled bracket, or inf.
    """
    check_los_model(s_curve_a, s_curve_b)
    check_excess_loss(eta_los, eta_nlos)
    h = np.asarray(altitude, dtype=float)
    require(h.ndim == 1, "{altitude} must be one-dimensional")
    require(np.all(h > 0), "{altitude} must be > 0")
    check_carrier(h, frequency)
    require(not math.isnan(max_path_loss), "{max_path_loss} must not be nan")

    def covered(heights, ranges):
        return _expected_loss(heights, ranges, frequency, s_curve_a,
                              s_curve_b, eta_los, eta_nlos) <= max_path_loss

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
        with np.errstate(over="ignore"):  # inf, as it passes _UNBOUNDED
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
    More than ``MAX_GRID_POINTS`` of them is a ``DomainError``, as is a
    step too small to advance the running sum."""
    lo, hi = altitude_range
    require(0 < lo <= hi < math.inf,
            "{altitude_range} must satisfy 0 < lo <= hi < inf")
    require(grid_step > 0, "{grid_step} must be > 0")
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
        require(held <= MAX_GRID_POINTS,
                f"more than {MAX_GRID_POINTS} altitudes from {lo} to {hi} "
                f"in steps of {{grid_step}} {grid_step}", "altitude_range")
        start = float(chunk[-1]) + grid_step
