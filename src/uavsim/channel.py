"""Air-to-ground link computations.

Free-space path loss, SNR relative to a reference anchor, Shannon
spectral efficiency, and Doppler shift.  Everything here is a pure
function of its inputs.

Every link runs from a transmitter in the air to a receiver on the
ground, so its slant distance follows from its horizontal separation and
the transmitter height.  Each formula is one numpy function that takes a
``LinkGeometry`` (or SNRs) of floats or arrays and returns a float or an
array to match.  A link's SNR is ``snr_anchor_db`` minus its path loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s


class ChannelDomainError(ValueError):
    """Raised for geometrically or physically invalid channel inputs."""


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of one link or of many, from a transmitter in the air to a
    receiver on the ground: horizontal separations, and transmitter heights
    that broadcast against them, e.g. one flight sampled in time (a scalar
    height) or one ground range per altitude of a grid.

    ``slant_distance`` is derived from the horizontal separation and the
    transmitter height.
    """

    horizontal_separation: float | np.ndarray  # m, >= 0
    transmitter_height: float | np.ndarray     # m, > 0

    def __post_init__(self):
        if np.any(self.horizontal_separation < 0):
            raise ChannelDomainError("horizontal_separation must be >= 0")
        if np.any(self.transmitter_height <= 0):
            raise ChannelDomainError("transmitter_height must be > 0")

    @property
    def slant_distance(self):
        return _slant(self.horizontal_separation, self.transmitter_height)


@dataclass(frozen=True)
class ChannelModel:
    """Free-space (Friis) path loss at one carrier frequency."""

    carrier_frequency: float  # Hz, > 0

    def __post_init__(self):
        if self.carrier_frequency <= 0:
            raise ChannelDomainError("carrier_frequency must be > 0")

    def path_loss_db(self, geometry: LinkGeometry):
        """Path loss of each link of ``geometry``, dB."""
        return free_space_path_loss(geometry, self.carrier_frequency)


@dataclass(frozen=True)
class SnrReference:
    """SNR anchor: the mean received SNR observed at a reference distance.

    Fixes transmit power/noise implicitly; under free space the SNR at
    distance d is ``reference_snr_db + 20*log10(reference_distance/d)``.
    """

    reference_snr_db: float
    reference_distance: float  # m, > 0

    def __post_init__(self):
        if self.reference_distance <= 0:
            raise ChannelDomainError("reference_distance must be > 0")


def _slant(horizontal_separation, height):
    """Slant distance of links with these horizontal separations and
    transmitter heights, m."""
    return np.hypot(horizontal_separation, height)


def _check_frequency(frequency: float) -> None:
    if frequency <= 0:
        raise ChannelDomainError("frequency must be > 0")


def _free_space_loss(distance, frequency: float):
    """``free_space_path_loss`` of slant distances, once they and
    ``frequency`` are checked."""
    with np.errstate(over="ignore", divide="ignore"):
        return 20.0 * np.log10(4.0 * math.pi * distance * frequency
                               / SPEED_OF_LIGHT)


def free_space_path_loss(geometry: LinkGeometry, frequency: float):
    """Free-space (Friis) path loss in dB: 20*log10(4*pi*d*f/c); ``inf``
    where 4*pi*d*f overflows and ``-inf`` where 4*pi*d*f/c underflows to
    0.  A slant distance is never 0, as the transmitter height is > 0."""
    _check_frequency(frequency)
    return _free_space_loss(geometry.slant_distance, frequency)


def snr_anchor_db(model: ChannelModel, ref: SnrReference,
                  transmitter_height: float) -> float:
    """The anchor's SNR plus the model's path loss at the reference
    distance, for links from this height to the ground: the SNR in dB of
    such a link is this value minus its own path loss.  Raises
    ``ChannelDomainError`` when the square of the reference distance
    overflows, or when the path loss of the reference link overflows or
    underflows."""
    # Compared and squared as the float the link's arithmetic uses, so an
    # integer height acts as its float does.
    height = float(transmitter_height)
    if ref.reference_distance < abs(height):
        raise ChannelDomainError(
            "reference_distance shorter than the endpoint height difference")
    try:
        ground = math.sqrt(ref.reference_distance ** 2 - height ** 2)
    except OverflowError:
        raise ChannelDomainError(
            "reference_distance too large: its square overflows") from None
    reference_loss = model.path_loss_db(
        LinkGeometry(horizontal_separation=ground, transmitter_height=height))
    if not math.isfinite(reference_loss):
        raise ChannelDomainError(
            f"path loss at reference_distance "
            f"{'underflows' if reference_loss < 0 else 'overflows'} at "
            f"carrier_frequency {model.carrier_frequency:g} Hz")
    return ref.reference_snr_db + reference_loss


def spectral_efficiency(snr_db):
    """Shannon spectral efficiency log2(1 + SNR) in bps/Hz; 0 at -inf dB."""
    return np.log2(1.0 + 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


def doppler_shift(relative_speed: float, frequency: float) -> float:
    """Doppler shift v*f/c in Hz (diagnostic only, never applied to rates)."""
    if relative_speed < 0:
        raise ChannelDomainError("relative_speed must be >= 0")
    return relative_speed * frequency / SPEED_OF_LIGHT
