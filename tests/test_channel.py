import math

import numpy as np
import pytest

from uavsim.channel import (ChannelDomainError, ChannelModel, LinkGeometry,
                            SnrReference, doppler_shift, free_space_path_loss,
                            rician_power_gains, snr_anchor_db,
                            spectral_efficiency, two_ray_path_loss)

F5GHZ = 5e9
# Midpoint slant distance for R=1 km at H=100 m.
MID_SLANT = math.hypot(500.0, 100.0)


def geo(horizontal, tx_height=100.0, rx_height=0.0):
    return LinkGeometry(horizontal, tx_height, rx_height)


def snr(geometry, model, ref):
    # A link's mean SNR in dB: the anchor minus the link's own path loss.
    return (snr_anchor_db(model, ref, geometry.transmitter_height,
                          geometry.receiver_height)
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
            # Zero slant distance: equal heights, zero separation.
            free_space_path_loss(LinkGeometry(0.0, 5.0, 5.0), F5GHZ)


class TestTwoRayPathLoss:
    def test_zero_reflection_equals_free_space(self):
        for i in range(100):
            g = LinkGeometry(10.0 + 37.0 * i, 50.0 + i, 1.5)
            assert two_ray_path_loss(g, F5GHZ, 0.0) == pytest.approx(
                free_space_path_loss(g, F5GHZ), abs=1e-9)

    def test_far_field_asymptote(self):
        # Beyond the breakpoint the loss approaches 40log10(d) - 20log10(ht*hr).
        g = LinkGeometry(20_000.0, 100.0, 1.5)
        asymptote = (40.0 * math.log10(20_000.0)
                     - 20.0 * math.log10(100.0 * 1.5))
        assert two_ray_path_loss(g, F5GHZ, -1.0) == pytest.approx(asymptote,
                                                                  abs=1.0)

    def test_perfect_cancellation_returns_inf(self):
        # Receiver on the ground, perfect reflection: both rays identical
        # and opposite, infinite loss rather than an error.
        g = LinkGeometry(1000.0, 100.0, 0.0)
        assert two_ray_path_loss(g, F5GHZ, -1.0) == math.inf


class TestRicianFading:
    def test_pure_los_limit(self):
        rng = np.random.default_rng(1)
        p = rician_power_gains(300.0, rng, 1000)
        assert np.all(np.abs(np.sqrt(p) - 1.0) < 1e-6)

    def test_unit_mean_power_k15(self):
        rng = np.random.default_rng(2)
        p = rician_power_gains(15.0, rng, 1_000_000)
        assert 0.995 <= np.mean(p) <= 1.005

    @pytest.mark.parametrize("k_db", [0.0, 5.0, 15.0, 28.0])
    def test_unit_mean_power_across_k(self, k_db):
        rng = np.random.default_rng(3)
        p = rician_power_gains(k_db, rng, 100_000)
        assert np.mean(p) == pytest.approx(1.0, abs=0.01)

    def test_moment_based_k_estimate(self):
        # Standard moment estimator: with c = Var[P]/E[P]^2 for the power
        # P = |g|^2, K = (1 - c + sqrt(1 - c)) / c.
        rng = np.random.default_rng(4)
        p = rician_power_gains(15.0, rng, 1_000_000)
        c = np.var(p) / np.mean(p) ** 2
        k_est_db = 10.0 * math.log10((1.0 - c + math.sqrt(1.0 - c)) / c)
        assert k_est_db == pytest.approx(15.0, abs=0.5)

    def test_deterministic_given_stream(self):
        a = rician_power_gains(15.0, np.random.default_rng(9), 64)
        b = rician_power_gains(15.0, np.random.default_rng(9), 64)
        assert np.array_equal(a, b)


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

    def test_rician_mean_snr_matches_base(self):
        rician = ChannelModel(carrier_frequency=F5GHZ, variant="rician",
                              k_factor_db=15.0)
        assert snr(geo(300.0), rician, self.ref) == pytest.approx(
            snr(geo(300.0), self.channel, self.ref), abs=1e-12)


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


class TestChannelModelValidation:
    def test_reflection_coefficient_range(self):
        with pytest.raises(ChannelDomainError):
            ChannelModel(carrier_frequency=F5GHZ, variant="two_ray",
                         reflection_coefficient=0.5)

    def test_k_factor_must_be_finite(self):
        with pytest.raises(ChannelDomainError):
            ChannelModel(carrier_frequency=F5GHZ, variant="rician",
                         k_factor_db=math.inf)

    def test_two_ray_variant_path_loss(self):
        model = ChannelModel(carrier_frequency=F5GHZ, variant="two_ray",
                             reflection_coefficient=-1.0)
        g = LinkGeometry(2000.0, 100.0, 1.5)
        assert model.path_loss_db(g) == pytest.approx(
            two_ray_path_loss(g, F5GHZ, -1.0), abs=1e-12)


class TestArrayKernels:
    """Each kernel evaluates an array of links as it evaluates each link
    alone, bit for bit, and rejects invalid links with one message."""

    HORIZONTAL = np.array([0.0, 0.5, 37.0, 100.0, 499.9, 500.0, 2000.0])
    HEIGHTS = [(100.0, 0.0), (100.0, 1.5), (30.0, 29.0)]
    MODELS = [ChannelModel(F5GHZ),
              ChannelModel(2e9, variant="two_ray",
                           reflection_coefficient=-0.5),
              ChannelModel(F5GHZ, variant="rician", base="two_ray",
                           reflection_coefficient=-0.9)]

    @staticmethod
    def assert_matches(array_values, per_element):
        assert isinstance(array_values, np.ndarray)
        np.testing.assert_array_equal(array_values, np.array(per_element))

    def links(self, tx, rx):
        return (LinkGeometry(self.HORIZONTAL, tx, rx),
                [LinkGeometry(h, tx, rx) for h in self.HORIZONTAL.tolist()])

    @pytest.mark.parametrize("tx,rx", HEIGHTS)
    def test_path_loss(self, tx, rx):
        array, links = self.links(tx, rx)
        self.assert_matches(free_space_path_loss(array, F5GHZ),
                            [free_space_path_loss(g, F5GHZ) for g in links])
        for coefficient in (-1.0, -0.3, 0.0):
            self.assert_matches(
                two_ray_path_loss(array, F5GHZ, coefficient),
                [two_ray_path_loss(g, F5GHZ, coefficient) for g in links])
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

    def test_perfect_null_is_inf_loss_and_zero_se(self, recwarn):
        # Ground receiver, coefficient -1: the two rays cancel exactly.
        array = LinkGeometry(self.HORIZONTAL, 100.0, 0.0)
        loss = two_ray_path_loss(array, F5GHZ, -1.0)
        assert np.all(np.isposinf(loss))
        assert spectral_efficiency(-loss).tolist() == \
            [0.0] * len(self.HORIZONTAL)
        # The anchor sits in the null too, so no SNR can be anchored; the
        # reference is rejected instead of returning inf - inf.
        model = ChannelModel(F5GHZ, variant="two_ray")
        with pytest.raises(ChannelDomainError, match="reference"):
            snr_anchor_db(model, SnrReference(10.0, 150.0), 100.0, 0.0)
        assert not recwarn.list

    # (horizontal, tx height, rx height), frequency
    ERROR_CASES = [((0.0, 100.0, 100.0), F5GHZ),  # zero slant distance
                   ((10.0, 100.0, 0.0), 0.0),     # frequency <= 0
                   ((10.0, 100.0, 0.0), -1.0),
                   ((0.0, 100.0, 99.0), F5GHZ)]   # reference shorter than dh
    PATH_LOSS_ERRORS = ["slant distance must be > 0", "frequency must be > 0",
                        "frequency must be > 0", None]

    @pytest.mark.parametrize("kernel,messages", [
        (free_space_path_loss, PATH_LOSS_ERRORS),
        (two_ray_path_loss, PATH_LOSS_ERRORS),
        (lambda g, f: snr(g, ChannelModel(F5GHZ), SnrReference(10.0, 0.5)),
         ["slant distance must be > 0"] + 3 * [
             "reference_distance shorter than the endpoint height "
             "difference"]),
    ], ids=["free_space_path_loss", "two_ray_path_loss", "snr"])
    def test_domain_error_messages(self, kernel, messages):
        for ((h, tx, rx), f), message in zip(self.ERROR_CASES, messages):
            # One link alone, and the same link after a valid one.
            for links in (LinkGeometry(h, tx, rx),
                          LinkGeometry(np.array([50.0, h]), tx, rx)):
                if message is None:
                    kernel(links, f)
                    continue
                with pytest.raises(ChannelDomainError) as error:
                    kernel(links, f)
                assert str(error.value) == message

    def test_geometry_validation(self):
        with pytest.raises(ChannelDomainError,
                           match="horizontal_separation must be >= 0"):
            LinkGeometry(np.array([1.0, -1.0]), 100.0)
        with pytest.raises(ChannelDomainError,
                           match="transmitter_height must be > 0"):
            LinkGeometry(np.array([1.0]), 0.0)
        with pytest.raises(ChannelDomainError,
                           match="receiver_height must be >= 0"):
            LinkGeometry(np.array([1.0]), 100.0, -1.0)

    def test_power_gains_follow_scalar_draw_order(self):
        # One call for 50 gains draws what 50 one-gain calls draw, in the
        # same order, and leaves the generator where they leave it.
        rng = np.random.default_rng(11)
        want = [rician_power_gains(6.0, rng, 1)[0] for _ in range(50)]
        rng_array = np.random.default_rng(11)
        self.assert_matches(rician_power_gains(6.0, rng_array, 50), want)
        assert rng_array.standard_normal() == rng.standard_normal()
