import math

import numpy as np
import pytest

from uavsim.channel import (ChannelDomainError, ChannelModel, LinkGeometry,
                            SnrReference, doppler_shift, free_space_path_loss,
                            snr_anchor_db, spectral_efficiency)

F5GHZ = 5e9
# Midpoint slant distance for R=1 km at H=100 m.
MID_SLANT = math.hypot(500.0, 100.0)


def geo(horizontal, tx_height=100.0):
    return LinkGeometry(horizontal, tx_height)


def snr(geometry, model, ref):
    # A link's mean SNR in dB: the anchor minus the link's own path loss.
    return (snr_anchor_db(model, ref, geometry.transmitter_height)
            - model.path_loss_db(geometry))


def fspl_oracle(d, f):
    # One-line Friis check, independent of the implementation.
    return 20.0 * math.log10(4.0 * math.pi * d * f / 2.998e8)


class TestFreeSpacePathLoss:
    def test_100m_at_5ghz(self):
        loss = free_space_path_loss(LinkGeometry(0.0, 100.0), F5GHZ)
        assert loss == pytest.approx(86.42, abs=0.01)
        assert loss == pytest.approx(fspl_oracle(100.0, F5GHZ), abs=1e-12)

    def test_midpoint_slant(self):
        loss = free_space_path_loss(geo(500.0), F5GHZ)
        assert loss == pytest.approx(100.57, abs=0.01)
        assert loss == pytest.approx(fspl_oracle(MID_SLANT, F5GHZ), abs=1e-12)

    def test_doubling_distance_adds_6db(self):
        l1 = free_space_path_loss(LinkGeometry(0.0, 200.0), F5GHZ)
        l2 = free_space_path_loss(LinkGeometry(0.0, 100.0), F5GHZ)
        assert l1 - l2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_distance_ratio_identity(self):
        # Loss difference equals 20*log10(d1/d2) at machine precision.
        for d1, d2 in [(123.0, 45.0), (1000.0, 7.0), (5.0, 4999.0)]:
            diff = (free_space_path_loss(LinkGeometry(0.0, d1), F5GHZ)
                    - free_space_path_loss(LinkGeometry(0.0, d2), F5GHZ))
            assert diff == pytest.approx(20.0 * math.log10(d1 / d2),
                                         abs=1e-10)

    def test_monotone_in_distance_and_frequency(self):
        assert (free_space_path_loss(geo(600.0), F5GHZ)
                > free_space_path_loss(geo(500.0), F5GHZ))
        assert (free_space_path_loss(geo(500.0), 6e9)
                > free_space_path_loss(geo(500.0), F5GHZ))

    def test_domain_errors(self):
        with pytest.raises(ChannelDomainError):
            free_space_path_loss(geo(100.0), 0.0)
        with pytest.raises(ChannelDomainError):
            LinkGeometry(100.0, 0.0)
        with pytest.raises(ChannelDomainError):
            # A zero slant distance needs zero separation and height; the
            # geometry refuses the height.
            free_space_path_loss(LinkGeometry(0.0, 0.0), F5GHZ)


class TestSnrAt:
    channel = ChannelModel(carrier_frequency=F5GHZ)
    ref = SnrReference(reference_snr_db=10.0, reference_distance=MID_SLANT)

    def test_reference_distance_is_identity(self):
        assert snr(geo(500.0), self.channel, self.ref) == pytest.approx(
            10.0, abs=1e-9)

    def test_overhead_at_100m(self):
        # Inverse-square oracle: 10 dB * (509.90/100)^2 -> linear 260.
        value = snr(LinkGeometry(0.0, 100.0), self.channel, self.ref)
        assert value == pytest.approx(24.15, abs=0.005)
        assert 10.0 ** (value / 10.0) == pytest.approx(
            10.0 * (MID_SLANT / 100.0) ** 2, rel=1e-9)

    def test_at_223m(self):
        g = LinkGeometry(math.sqrt(223.61 ** 2 - 100.0 ** 2), 100.0)
        value = snr(g, self.channel, self.ref)
        assert value == pytest.approx(17.16, abs=0.005)
        assert 10.0 ** (value / 10.0) == pytest.approx(52.0, abs=0.01)

    def test_antitone_in_distance(self):
        snrs = snr(geo(np.arange(0.0, 5000.0, 50.0)), self.channel, self.ref)
        assert np.all(snrs[:-1] > snrs[1:])


class TestSpectralEfficiency:
    def test_10db(self):
        assert spectral_efficiency(10.0) == pytest.approx(math.log2(11.0),
                                                          abs=1e-12)
        assert spectral_efficiency(10.0) == pytest.approx(3.4594, abs=1e-4)

    def test_zero_snr(self):
        assert spectral_efficiency(-math.inf) == 0.0

    def test_24_15db(self):
        assert spectral_efficiency(24.15) == pytest.approx(8.028, abs=2e-3)

    def test_monotone_and_nonnegative(self):
        values = [spectral_efficiency(s) for s in range(-40, 61, 5)]
        assert all(v >= 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_3db_step_below_one_bit(self):
        step = 10.0 * math.log10(2.0)
        for snr in np.linspace(-30.0, 60.0, 200):
            gain = spectral_efficiency(snr) - spectral_efficiency(snr - step)
            assert gain < 1.0
        # Approaches exactly one bit per 3 dB at high SNR.
        assert (spectral_efficiency(40.0) - spectral_efficiency(40.0 - step)
                == pytest.approx(1.0, abs=0.01))


class TestDopplerShift:
    def test_zero_speed(self):
        assert doppler_shift(0.0, F5GHZ) == 0.0

    def test_uav_ground_case(self):
        assert doppler_shift(100.0, F5GHZ) == pytest.approx(1667.8, abs=0.1)

    def test_mmwave_uav_uav_case(self):
        assert doppler_shift(200.0, 60e9) == pytest.approx(40_027.0, abs=1.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ChannelDomainError):
            doppler_shift(-1.0, F5GHZ)


class TestArrayKernels:
    """Each kernel evaluates an array of links as it evaluates each link
    alone, bit for bit, and rejects invalid links with one message."""

    HORIZONTAL = np.array([0.0, 0.5, 37.0, 100.0, 499.9, 500.0, 2000.0])
    # A link of height tx - rx: 30 m over 29 m is a 1 m link.
    HEIGHTS = [(100.0, 0.0), (100.0, 1.5), (30.0, 29.0)]
    MODELS = [ChannelModel(F5GHZ), ChannelModel(2e9)]

    @staticmethod
    def assert_matches(array_values, per_element):
        assert isinstance(array_values, np.ndarray)
        np.testing.assert_array_equal(array_values, np.array(per_element))

    def links(self, tx, rx):
        return (LinkGeometry(self.HORIZONTAL, tx - rx),
                [LinkGeometry(h, tx - rx) for h in self.HORIZONTAL.tolist()])

    @pytest.mark.parametrize("tx,rx", HEIGHTS)
    def test_path_loss(self, tx, rx):
        array, links = self.links(tx, rx)
        self.assert_matches(free_space_path_loss(array, F5GHZ),
                            [free_space_path_loss(g, F5GHZ) for g in links])
        for model in self.MODELS:
            self.assert_matches(model.path_loss_db(array),
                                [model.path_loss_db(g) for g in links])

    @pytest.mark.parametrize("tx,rx", HEIGHTS)
    def test_snr(self, tx, rx):
        array, links = self.links(tx, rx)
        ref = SnrReference(10.0, 150.0)
        for model in self.MODELS:
            self.assert_matches(snr(array, model, ref),
                                [snr(g, model, ref) for g in links])

    def test_spectral_efficiency(self):
        snr_db = [-math.inf, -300.0, -3.0, 0.0, 10.0, 24.15, 80.0]
        self.assert_matches(spectral_efficiency(np.array(snr_db)),
                            [spectral_efficiency(x) for x in snr_db])

    def test_overflow_is_inf_loss_and_rejected_anchor(self, recwarn):
        # 4*pi*d*f overflows: the loss is inf, with no warning, and no SNR
        # can be anchored on it.
        array = LinkGeometry(self.HORIZONTAL, 100.0)
        assert np.all(np.isposinf(free_space_path_loss(array, 1e307)))
        assert free_space_path_loss(array, 1e300)[0] == pytest.approx(
            fspl_oracle(100.0, 1e300), abs=1e-9)
        with pytest.raises(ChannelDomainError,
                           match="overflows at carrier_frequency 1e"):
            snr_anchor_db(ChannelModel(1e307), SnrReference(10.0, 150.0),
                          100.0)
        # 4*pi*d*f/c underflows to 0: the loss is -inf, with no warning,
        # and the anchor says so.
        assert np.all(np.isneginf(free_space_path_loss(array, 5e-324)))
        with pytest.raises(ChannelDomainError,
                           match="underflows at carrier_frequency 4.9"):
            snr_anchor_db(ChannelModel(5e-324), SnrReference(10.0, 150.0),
                          100.0)
        # The reference distance's square overflows before any path loss.
        with pytest.raises(ChannelDomainError,
                           match="reference_distance too large"):
            snr_anchor_db(ChannelModel(F5GHZ), SnrReference(10.0, 1e200),
                          100.0)
        assert not recwarn.list

    # (horizontal, tx height), frequency
    ERROR_CASES = [((0.0, 0.0), F5GHZ),    # zero slant distance
                   ((10.0, 100.0), 0.0),   # frequency <= 0
                   ((10.0, 100.0), -1.0),
                   ((0.0, 1.0), F5GHZ)]    # reference shorter than height
    PATH_LOSS_ERRORS = ["transmitter_height must be > 0",
                        "frequency must be > 0", "frequency must be > 0",
                        None]

    @pytest.mark.parametrize("kernel,messages", [
        (free_space_path_loss, PATH_LOSS_ERRORS),
        (lambda g, f: snr(g, ChannelModel(F5GHZ), SnrReference(10.0, 0.5)),
         ["transmitter_height must be > 0"] + 3 * [
             "reference_distance shorter than the endpoint height "
             "difference"]),
    ], ids=["free_space_path_loss", "snr"])
    def test_domain_error_messages(self, kernel, messages):
        for ((h, tx), f), message in zip(self.ERROR_CASES, messages):
            # One link alone, and the same link after a valid one.
            for horizontal in (h, np.array([50.0, h])):
                if message is None:
                    kernel(LinkGeometry(horizontal, tx), f)
                    continue
                with pytest.raises(ChannelDomainError) as error:
                    kernel(LinkGeometry(horizontal, tx), f)
                assert str(error.value) == message

    def test_geometry_validation(self):
        with pytest.raises(ChannelDomainError,
                           match="horizontal_separation must be >= 0"):
            LinkGeometry(np.array([1.0, -1.0]), 100.0)
        with pytest.raises(ChannelDomainError,
                           match="transmitter_height must be > 0"):
            LinkGeometry(np.array([1.0]), 0.0)
        # Every receiver is on the ground: a geometry takes no height of
        # its own for it.
        with pytest.raises(TypeError):
            LinkGeometry(np.array([1.0]), 100.0, -1.0)
