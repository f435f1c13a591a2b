"""Air-to-ground and air-to-air link computations.

Path loss (free-space and coherent two-ray), Rician fading samples,
SNR relative to a reference anchor, Shannon spectral efficiency, and
Doppler shift.  Everything here is a pure function of its inputs; random
sampling takes an explicit ``numpy.random.Generator``.

Each path-loss formula and the spectral efficiency have a scalar
function (plain ``math``, for callers that evaluate one link at a time)
and an ``*_array`` twin that evaluates a ``LinkGeometryArray`` in one
numpy pass.  Both share one private kernel per formula and raise the
same ``ChannelDomainError`` messages.  ``snr_at`` is the scalar SNR;
array callers take the SNR as ``snr_anchor_db`` minus their own path
loss, so each link's loss is evaluated once.
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
    """Transmitter-receiver geometry for a single link.

    ``slant_distance`` is derived from the horizontal separation and the
    height difference between the endpoints.
    """

    horizontal_separation: float  # m, >= 0
    transmitter_height: float     # m, > 0
    receiver_height: float = 0.0  # m, >= 0

    def __post_init__(self):
        if self.horizontal_separation < 0:
            raise ChannelDomainError("horizontal_separation must be >= 0")
        if self.transmitter_height <= 0:
            raise ChannelDomainError("transmitter_height must be > 0")
        if self.receiver_height < 0:
            raise ChannelDomainError("receiver_height must be >= 0")

    @property
    def slant_distance(self) -> float:
        return math.hypot(self.horizontal_separation,
                          self.transmitter_height - self.receiver_height)


@dataclass(frozen=True)
class LinkGeometryArray:
    """Many links in one array: horizontal separations, and endpoint heights
    that broadcast against them, e.g. one flight sampled in time (scalar
    heights) or one ground range per altitude of a grid."""

    horizontal_separation: np.ndarray        # m, >= 0
    transmitter_height: float | np.ndarray   # m, > 0
    receiver_height: float | np.ndarray = 0.0  # m, >= 0

    def __post_init__(self):
        if np.any(self.horizontal_separation < 0):
            raise ChannelDomainError("horizontal_separation must be >= 0")
        if np.any(self.transmitter_height <= 0):
            raise ChannelDomainError("transmitter_height must be > 0")
        if np.any(self.receiver_height < 0):
            raise ChannelDomainError("receiver_height must be >= 0")

    @property
    def slant_distance(self) -> np.ndarray:
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

    def path_loss_db(self, geometry: LinkGeometry) -> float:
        """Mean path loss of this model for the given geometry, in dB."""
        pl_variant = self.base if self.variant == "rician" else self.variant
        if pl_variant == "two_ray":
            return two_ray_path_loss(geometry, self.carrier_frequency,
                                     self.reflection_coefficient)
        return free_space_path_loss(geometry, self.carrier_frequency)

    def path_loss_db_array(self, geometry: LinkGeometryArray) -> np.ndarray:
        """``path_loss_db`` of every link in ``geometry``."""
        pl_variant = self.base if self.variant == "rician" else self.variant
        if pl_variant == "two_ray":
            return two_ray_path_loss_array(geometry, self.carrier_frequency,
                                           self.reflection_coefficient)
        return free_space_path_loss_array(geometry, self.carrier_frequency)


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


def _friis_db(slant_distance, frequency: float, log10):
    return 20.0 * log10(4.0 * math.pi * slant_distance * frequency
                        / SPEED_OF_LIGHT)


def free_space_path_loss(geometry: LinkGeometry, frequency: float) -> float:
    """Free-space (Friis) path loss in dB: 20*log10(4*pi*d*f/c)."""
    d = geometry.slant_distance
    if d <= 0:
        raise ChannelDomainError("slant distance must be > 0")
    if frequency <= 0:
        raise ChannelDomainError("frequency must be > 0")
    return _friis_db(d, frequency, math.log10)


def free_space_path_loss_array(geometry: LinkGeometryArray,
                               frequency: float) -> np.ndarray:
    """``free_space_path_loss`` of every link in ``geometry``."""
    d = geometry.slant_distance
    if np.any(d <= 0):
        raise ChannelDomainError("slant distance must be > 0")
    if frequency <= 0:
        raise ChannelDomainError("frequency must be > 0")
    return _friis_db(d, frequency, np.log10)


def two_ray_breakpoint_distance(transmitter_height: float,
                                receiver_height: float,
                                frequency: float) -> float:
    """Distance beyond which two-ray loss follows the 40*log10(d) asymptote."""
    wavelength = SPEED_OF_LIGHT / frequency
    return 4.0 * transmitter_height * receiver_height / wavelength


def _two_ray_amplitude(d_direct, d_reflected, frequency: float,
                       reflection_coefficient: float):
    """Received field amplitude relative to the 1 m free-space reference."""
    wavelength = SPEED_OF_LIGHT / frequency
    k = 2.0 * math.pi / wavelength
    direct = np.exp(-1j * k * d_direct) / d_direct
    reflected = reflection_coefficient * np.exp(-1j * k * d_reflected) / d_reflected
    return abs(direct + reflected) * wavelength / (4.0 * math.pi)


def _check_two_ray(transmitter_height, frequency: float) -> None:
    if np.any(transmitter_height <= 0):
        raise ChannelDomainError("transmitter_height must be > 0")
    if frequency <= 0:
        raise ChannelDomainError("frequency must be > 0")


def two_ray_path_loss(geometry: LinkGeometry, frequency: float,
                      reflection_coefficient: float = -1.0) -> float:
    """Coherent two-ray (direct + ground-reflected) path loss in dB.

    The reflected ray travels the image path and is scaled by the
    reflection coefficient; the two complex amplitudes are summed.  A
    perfect null (e.g. receiver on the ground with coefficient -1)
    returns ``inf`` rather than raising.
    """
    _check_two_ray(geometry.transmitter_height, frequency)
    r = geometry.horizontal_separation
    d_direct = math.hypot(r, geometry.transmitter_height
                          - geometry.receiver_height)
    if d_direct <= 0:
        raise ChannelDomainError("slant distance must be > 0")
    d_reflected = math.hypot(r, geometry.transmitter_height
                             + geometry.receiver_height)
    amplitude = _two_ray_amplitude(d_direct, d_reflected, frequency,
                                   reflection_coefficient)
    if amplitude == 0.0:
        return math.inf
    return -20.0 * math.log10(amplitude)


def two_ray_path_loss_array(geometry: LinkGeometryArray, frequency: float,
                            reflection_coefficient: float = -1.0) -> np.ndarray:
    """``two_ray_path_loss`` of every link in ``geometry``; nulls are ``inf``."""
    _check_two_ray(geometry.transmitter_height, frequency)
    r = geometry.horizontal_separation
    d_direct = geometry.slant_distance
    if np.any(d_direct <= 0):
        raise ChannelDomainError("slant distance must be > 0")
    d_reflected = np.hypot(r, geometry.transmitter_height
                           + geometry.receiver_height)
    amplitude = _two_ray_amplitude(d_direct, d_reflected, frequency,
                                   reflection_coefficient)
    with np.errstate(divide="ignore"):  # log10(0) = -inf: a perfect null
        return -20.0 * np.log10(amplitude)


def _rician_gains(k_factor_db: float, rng: np.random.Generator, n: int,
                  interleaved: bool) -> np.ndarray:
    """``n`` gains; the normal draws come either all real parts first or
    as (real, imaginary) pairs."""
    if not math.isfinite(k_factor_db):
        raise ChannelDomainError("k_factor_db must be finite")
    k = 10.0 ** (k_factor_db / 10.0)
    los = math.sqrt(k / (k + 1.0))
    scatter_scale = math.sqrt(1.0 / (k + 1.0))
    if interleaved:
        pairs = rng.standard_normal(2 * n)
        z_real, z_imag = pairs[0::2], pairs[1::2]
    else:
        z_real = rng.standard_normal(n)
        z_imag = rng.standard_normal(n)
    z = (z_real + 1j * z_imag) / math.sqrt(2.0)
    return los + scatter_scale * z


def sample_rician_gain(k_factor_db: float, rng: np.random.Generator,
                       size: int | None = None):
    """Draw unit-mean-power Rician fading gains.

    g = sqrt(K/(K+1)) + sqrt(1/(K+1)) * z with z a circularly-symmetric
    unit-variance complex Gaussian, so E[|g|^2] = 1.  Returns a complex
    scalar, or an array when ``size`` is given (all real parts are drawn
    before all imaginary parts).
    """
    n = 1 if size is None else size
    g = _rician_gains(k_factor_db, rng, n, interleaved=False)
    return g[0] if size is None else g


def rician_power_gains(k_factor_db: float, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """|g|^2 of ``count`` Rician gains, drawn from ``rng`` in the order of
    ``count`` scalar ``sample_rician_gain`` calls (real, imaginary, real,
    ...), so a vectorised caller consumes the stream a per-step loop did."""
    return np.abs(_rician_gains(k_factor_db, rng, count,
                                interleaved=True)) ** 2


def snr_anchor_db(model: ChannelModel, ref: SnrReference,
                  transmitter_height: float,
                  receiver_height: float = 0.0) -> float:
    """The anchor's SNR plus the model's path loss at the reference
    distance, for links between these heights: the SNR in dB of such a
    link is this value minus its own path loss.  Raises
    ``ChannelDomainError`` when the reference link lies in a perfect null."""
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


def snr_at(geometry: LinkGeometry, model: ChannelModel,
           ref: SnrReference) -> float:
    """Mean received SNR in dB at the given geometry.

    Anchored so the model's own path loss at ``ref.reference_distance``
    (same endpoint heights) maps to ``ref.reference_snr_db``.  For the
    Rician variant this is the fading-averaged SNR.
    """
    return (snr_anchor_db(model, ref, geometry.transmitter_height,
                         geometry.receiver_height)
            - model.path_loss_db(geometry))


def _shannon(snr_db, log2):
    return log2(1.0 + 10.0 ** (snr_db / 10.0))


def spectral_efficiency(snr_db: float) -> float:
    """Shannon spectral efficiency log2(1 + SNR) in bps/Hz."""
    if snr_db == -math.inf:
        return 0.0
    return _shannon(snr_db, math.log2)


def spectral_efficiency_array(snr_db: np.ndarray) -> np.ndarray:
    """``spectral_efficiency`` of every SNR in ``snr_db``."""
    return _shannon(np.asarray(snr_db, dtype=float), np.log2)


def doppler_shift(relative_speed: float, frequency: float) -> float:
    """Doppler shift v*f/c in Hz (diagnostic only, never applied to rates)."""
    if relative_speed < 0:
        raise ChannelDomainError("relative_speed must be >= 0")
    return relative_speed * frequency / SPEED_OF_LIGHT
