"""Air-to-ground and air-to-air link computations.

Path loss (free-space and coherent two-ray), Rician fading samples,
SNR relative to a reference anchor, Shannon spectral efficiency, and
Doppler shift.  Everything here is a pure function of its inputs; random
sampling takes an explicit ``numpy.random.Generator``.

Each formula is one numpy function that takes a ``LinkGeometry`` (or
SNRs) of floats or arrays and returns a float or an array to match.  A
link's SNR is ``snr_anchor_db`` minus its path loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s


class ChannelDomainError(ValueError):
    """Raised for geometrically or physically invalid channel inputs."""


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter-receiver geometry of one link or of many: horizontal
    separations, and endpoint heights that broadcast against them, e.g. one
    flight sampled in time (scalar heights) or one ground range per
    altitude of a grid.

    ``slant_distance`` is derived from the horizontal separation and the
    height difference between the endpoints.
    """

    horizontal_separation: float | np.ndarray  # m, >= 0
    transmitter_height: float | np.ndarray     # m, > 0
    receiver_height: float | np.ndarray = 0.0  # m, >= 0

    def __post_init__(self):
        if np.any(self.horizontal_separation < 0):
            raise ChannelDomainError("horizontal_separation must be >= 0")
        if np.any(self.transmitter_height <= 0):
            raise ChannelDomainError("transmitter_height must be > 0")
        if np.any(self.receiver_height < 0):
            raise ChannelDomainError("receiver_height must be >= 0")

    @property
    def slant_distance(self):
        return np.hypot(self.horizontal_separation,
                        self.transmitter_height - self.receiver_height)


@dataclass(frozen=True)
class ChannelModel:
    """Tagged path-loss model choice.

    variant "free_space": Friis magnitude only.
    variant "two_ray": coherent direct + ground-reflected ray sum with a
    configurable reflection coefficient in [-1, 0].
    variant "rician": Rician fading on top of ``base`` (mean path loss is
    the base model's; fading gain is normalized to unit mean power).
    """

    carrier_frequency: float  # Hz, > 0
    variant: Literal["free_space", "two_ray", "rician"] = "free_space"
    reflection_coefficient: float = -1.0   # two_ray only
    k_factor_db: float = 15.0              # rician only
    base: Literal["free_space", "two_ray"] = "free_space"  # rician only

    def __post_init__(self):
        if self.carrier_frequency <= 0:
            raise ChannelDomainError("carrier_frequency must be > 0")
        if self.variant not in ("free_space", "two_ray", "rician"):
            raise ChannelDomainError(f"unknown channel variant {self.variant!r}")
        if not -1.0 <= self.reflection_coefficient <= 0.0:
            raise ChannelDomainError("reflection_coefficient must lie in [-1, 0]")
        if not math.isfinite(self.k_factor_db):
            raise ChannelDomainError("k_factor_db must be finite")

    def path_loss_db(self, geometry: LinkGeometry):
        """Mean path loss of this model for each link of ``geometry``, dB."""
        pl_variant = self.base if self.variant == "rician" else self.variant
        if pl_variant == "two_ray":
            return two_ray_path_loss(geometry, self.carrier_frequency,
                                     self.reflection_coefficient)
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


def _slant_distance(geometry: LinkGeometry, frequency: float):
    """``geometry.slant_distance``, once it and ``frequency`` are checked."""
    d = geometry.slant_distance
    if np.any(d <= 0):
        raise ChannelDomainError("slant distance must be > 0")
    if frequency <= 0:
        raise ChannelDomainError("frequency must be > 0")
    return d


def free_space_path_loss(geometry: LinkGeometry, frequency: float):
    """Free-space (Friis) path loss in dB: 20*log10(4*pi*d*f/c)."""
    d = _slant_distance(geometry, frequency)
    return 20.0 * np.log10(4.0 * math.pi * d * frequency / SPEED_OF_LIGHT)


def two_ray_path_loss(geometry: LinkGeometry, frequency: float,
                      reflection_coefficient: float = -1.0):
    """Coherent two-ray (direct + ground-reflected) path loss in dB.

    The reflected ray travels the image path and is scaled by the
    reflection coefficient; the two complex amplitudes are summed.  A
    perfect null (e.g. receiver on the ground with coefficient -1) is an
    ``inf`` loss rather than an error.
    """
    d_direct = _slant_distance(geometry, frequency)
    d_reflected = np.hypot(geometry.horizontal_separation,
                           geometry.transmitter_height
                           + geometry.receiver_height)
    wavelength = SPEED_OF_LIGHT / frequency
    k = 2.0 * math.pi / wavelength
    direct = np.exp(-1j * k * d_direct) / d_direct
    reflected = reflection_coefficient * np.exp(-1j * k * d_reflected) / d_reflected
    # Received field amplitude relative to the 1 m free-space reference.
    amplitude = np.abs(direct + reflected) * wavelength / (4.0 * math.pi)
    with np.errstate(divide="ignore"):  # log10(0) = -inf: a perfect null
        return -20.0 * np.log10(amplitude)


def rician_power_gains(k_factor_db: float, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """|g|^2 of ``count`` unit-mean-power Rician fading gains.

    g = sqrt(K/(K+1)) + sqrt(1/(K+1)) * z with z a circularly-symmetric
    unit-variance complex Gaussian, so E[|g|^2] = 1.  Each gain draws its
    (real, imaginary) normal pair from ``rng`` in turn, so a vectorised
    caller consumes the stream a per-step loop would.
    """
    if not math.isfinite(k_factor_db):
        raise ChannelDomainError("k_factor_db must be finite")
    k = 10.0 ** (k_factor_db / 10.0)
    los = math.sqrt(k / (k + 1.0))
    scatter_scale = math.sqrt(1.0 / (k + 1.0))
    pairs = rng.standard_normal(2 * count)
    z = (pairs[0::2] + 1j * pairs[1::2]) / math.sqrt(2.0)
    return np.abs(los + scatter_scale * z) ** 2


def snr_anchor_db(model: ChannelModel, ref: SnrReference,
                  transmitter_height: float,
                  receiver_height: float = 0.0) -> float:
    """The anchor's SNR plus the model's path loss at the reference
    distance, for links between these heights: the SNR in dB of such a
    link is this value minus its own path loss (for the Rician variant,
    the fading-averaged SNR).  Raises ``ChannelDomainError`` when the
    reference link lies in a perfect null."""
    dh = transmitter_height - receiver_height
    if ref.reference_distance < abs(dh):
        raise ChannelDomainError(
            "reference_distance shorter than the endpoint height difference")
    ref_geometry = LinkGeometry(
        horizontal_separation=math.sqrt(ref.reference_distance ** 2 - dh ** 2),
        transmitter_height=transmitter_height,
        receiver_height=receiver_height,
    )
    reference_loss = model.path_loss_db(ref_geometry)
    if not math.isfinite(reference_loss):
        raise ChannelDomainError(
            "path loss at reference_distance is not finite (the reference "
            "link lies in a perfect two-ray null)")
    return ref.reference_snr_db + reference_loss


def spectral_efficiency(snr_db):
    """Shannon spectral efficiency log2(1 + SNR) in bps/Hz; 0 at -inf dB."""
    return np.log2(1.0 + 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


def doppler_shift(relative_speed: float, frequency: float) -> float:
    """Doppler shift v*f/c in Hz (diagnostic only, never applied to rates)."""
    if relative_speed < 0:
        raise ChannelDomainError("relative_speed must be >= 0")
    return relative_speed * frequency / SPEED_OF_LIGHT
