"""Air-to-ground link computations.

Free-space path loss, SNR relative to a reference anchor, Shannon
spectral efficiency, and Doppler shift.  Everything here is a pure
function of its inputs.

Every link runs from a transmitter in the air to a receiver on the
ground, so its slant distance follows from its horizontal separation and
the transmitter height.  Each formula is one numpy function of floats or
arrays that broadcast against each other, e.g. one flight sampled in
time at one height, or one ground range per altitude of a grid, and
returns a float or an array to match.  A link's SNR is ``snr_anchor_db``
minus its path loss.
"""

from __future__ import annotations

import math

from . import require
from ._numpy import np

SPEED_OF_LIGHT = 2.998e8  # m/s


def slant_distance(horizontal_separation, transmitter_height):
    """Slant distance of links with these horizontal separations and
    transmitter heights, m."""
    return np.hypot(horizontal_separation, transmitter_height)


def _check_frequency(frequency: float) -> None:
    require(frequency > 0, "{frequency} must be > 0")


def _free_space_loss(distance, frequency: float, out=None):
    """``free_space_path_loss`` of slant distances, once they and
    ``frequency`` are checked; written into ``out``, which may be
    ``distance``, where given."""
    with np.errstate(over="ignore", divide="ignore"):
        loss = np.multiply(4.0 * math.pi, distance, out=out)
        loss = np.divide(np.multiply(loss, frequency, out=out),
                         SPEED_OF_LIGHT, out=out)
        return np.multiply(20.0, np.log10(loss, out=out), out=out)


def free_space_path_loss(horizontal_separation, transmitter_height,
                         frequency: float):
    """Free-space (Friis) path loss in dB, 20*log10(4*pi*d*f/c), of the
    links from ``transmitter_height`` (m, > 0) to the ground at
    ``horizontal_separation`` (m, >= 0): ``inf`` where 4*pi*d*f is
    infinite or overflows, and ``-inf`` where 4*pi*d*f/c underflows to 0.
    A slant distance d is never 0, as the transmitter height is > 0."""
    require(np.all(horizontal_separation >= 0),
            "{horizontal_separation} must be >= 0")
    require(np.all(transmitter_height > 0), "{transmitter_height} must be > 0")
    _check_frequency(frequency)
    return _free_space_loss(
        slant_distance(horizontal_separation, transmitter_height), frequency)


def _check_reference_distance(reference_distance: float) -> None:
    require(reference_distance > 0, "{reference_distance} must be > 0")


def snr_anchor_db(frequency: float, reference_snr_db: float,
                  reference_distance: float,
                  transmitter_height: float) -> float:
    """``reference_snr_db``, the mean SNR observed at
    ``reference_distance`` (m, > 0), plus the path loss at that distance,
    at ``frequency``, for links from this height to the ground: the SNR in
    dB of such a link is this value minus its own path loss, so under
    free space the SNR at distance d is ``reference_snr_db +
    20*log10(reference_distance/d)``; a ``reference_snr_db`` of +-inf or
    nan gives itself.  Raises ``DomainError`` where the square of the
    reference distance, or the reference link's path loss, is infinite."""
    _check_reference_distance(reference_distance)
    # Compared and squared as the float the link's arithmetic uses, so an
    # integer height acts as its float does.
    height = float(transmitter_height)
    require(reference_distance >= abs(height), "{reference_distance} shorter "
            "than the endpoint height difference", "transmitter_height")
    try:  # inf ** 2 raises nothing; it is refused as a square that overflows
        square = float(reference_distance) ** 2
    except OverflowError:
        square = math.inf
    require(square < math.inf,
            "{reference_distance} too large: its square overflows")
    reference_loss = free_space_path_loss(math.sqrt(square - height ** 2),
                                          height, frequency)
    require(math.isfinite(reference_loss),
            f"path loss at {{reference_distance}} "
            f"{'underflows' if reference_loss < 0 else 'overflows'} at "
            f"{{frequency}} {frequency:g} Hz")
    return reference_snr_db + reference_loss


def spectral_efficiency(snr_db):
    """Shannon spectral efficiency log2(1 + SNR) in bps/Hz: 0 at -inf dB,
    nan at nan and inf where 10**(snr_db/10) overflows, above 3082.55 dB."""
    with np.errstate(over="ignore"):
        return np.log2(1.0 + 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


def doppler_shift(relative_speed: float, frequency: float) -> float:
    """Doppler shift v*f/c in Hz (diagnostic only, never applied to rates)."""
    require(relative_speed >= 0, "{relative_speed} must be >= 0")
    return relative_speed * frequency / SPEED_OF_LIGHT
