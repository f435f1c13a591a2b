"""Altitude-coverage tradeoff for an aerial base station.

Higher altitude raises free-space loss but steepens elevation angles and
so raises the line-of-sight probability; the expected path loss mixes
LoS and NLoS excess losses by that probability.  Coverage radius is the
largest ground range whose expected loss stays under a threshold, and
optimal altitude maximizes that radius over a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._csvfile import write_csv
from .channel import LinkGeometry, free_space_path_loss


@dataclass(frozen=True)
class LosProbabilityModel:
    """Elevation-angle sigmoid P_LoS(theta) = 1/(1 + a*exp(-b*(theta - a)))."""

    s_curve_a: float
    s_curve_b: float

    def __post_init__(self):
        if self.s_curve_a <= 0 or self.s_curve_b <= 0:
            raise ValueError("s-curve parameters must be > 0")

    def los_probability(self, elevation_deg: float) -> float:
        a, b = self.s_curve_a, self.s_curve_b
        return 1.0 / (1.0 + a * math.exp(-b * (elevation_deg - a)))


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


# Implementer-default environment presets (a, b, eta_los dB, eta_nlos dB).
ENVIRONMENT_PRESETS = {
    "suburban": (4.88, 0.43, 0.1, 21.0),
    "urban": (9.61, 0.16, 1.0, 20.0),
    "dense_urban": (12.08, 0.11, 1.6, 23.0),
}


def environment_preset(name: str) -> tuple[LosProbabilityModel, ExcessLoss]:
    a, b, eta_los, eta_nlos = ENVIRONMENT_PRESETS[name]
    return LosProbabilityModel(a, b), ExcessLoss(eta_los, eta_nlos)


def expected_path_loss(altitude: float, ground_range: float, frequency: float,
                       los: LosProbabilityModel, excess: ExcessLoss) -> float:
    """LoS-probability-weighted mean path loss in dB."""
    if altitude <= 0:
        raise ValueError("altitude must be > 0")
    if ground_range < 0:
        raise ValueError("ground_range must be >= 0")
    geometry = LinkGeometry(horizontal_separation=ground_range,
                            transmitter_height=altitude)
    fspl = free_space_path_loss(geometry, frequency)
    theta = math.degrees(math.atan2(altitude, ground_range))
    p_los = los.los_probability(theta)
    return (p_los * (fspl + excess.eta_los)
            + (1.0 - p_los) * (fspl + excess.eta_nlos))


def coverage_radius(altitude: float, max_path_loss: float, frequency: float,
                    los: LosProbabilityModel, excess: ExcessLoss,
                    tolerance: float = 0.1) -> float:
    """Largest ground range with expected loss <= max_path_loss, by bisection.

    Relies on the expected loss being non-decreasing in range at fixed
    altitude; falls back to a fine scan if that fails for the given
    parameters.
    """
    def loss(r: float) -> float:
        return expected_path_loss(altitude, r, frequency, los, excess)

    if loss(0.0) > max_path_loss:
        return 0.0
    # Bracket the crossing by doubling.
    hi = max(altitude, 1.0)
    while loss(hi) <= max_path_loss:
        hi *= 2.0
        if hi > 1e9:
            return hi  # threshold never reached within any practical range
    lo = 0.0
    monotone = True
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if loss(mid) < loss(lo) - 1e-12:
            monotone = False
            break
        if loss(mid) <= max_path_loss:
            lo = mid
        else:
            hi = mid
    if monotone:
        return lo
    # Non-monotone parameters: exhaustive scan at the target resolution.
    r = 0.0
    best = 0.0
    while r <= hi:
        if loss(r) <= max_path_loss:
            best = r
        r += tolerance
    return best


def coverage_curve(altitude_range: tuple[float, float], max_path_loss: float,
                   frequency: float, los: LosProbabilityModel,
                   excess: ExcessLoss,
                   grid_step: float = 1.0) -> list[tuple[float, float]]:
    """(altitude, coverage radius) rows over the grid lo, lo + step, ... <= hi.

    Each altitude is the previous one plus ``grid_step``, so the grid
    carries the rounding of that running sum.
    """
    lo, hi = altitude_range
    if not 0 < lo <= hi < math.inf:
        raise ValueError("altitude_range must satisfy 0 < lo <= hi < inf")
    if not grid_step > 0:
        raise ValueError("grid_step must be > 0")
    rows = []
    h = lo
    while h <= hi + 1e-12:
        rows.append((h, coverage_radius(h, max_path_loss, frequency, los,
                                        excess)))
        h += grid_step
    return rows


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
    write_csv(path, ["altitude_m", "coverage_radius_m"], rows)
