import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uavsim import coverage
from uavsim.channel import LinkGeometry, free_space_path_loss
from uavsim.coverage import (ExcessLoss, LosProbabilityModel, altitude_grid,
                             coverage_radii, expected_path_loss)

URBAN_LOS = LosProbabilityModel(9.61, 0.16)
URBAN_EXCESS = ExcessLoss(1.0, 20.0)
NO_EXCESS = ExcessLoss(0.0, 0.0)
F2GHZ = 2e9
# Environment parameters (a, b, eta_los dB, eta_nlos dB).
ENVIRONMENTS = {
    "suburban": (4.88, 0.43, 0.1, 21.0),
    "urban": (9.61, 0.16, 1.0, 20.0),
    "dense_urban": (12.08, 0.11, 1.6, 23.0),
}


def environment(name):
    """The LoS sigmoid and excess losses of one of ``ENVIRONMENTS``."""
    a, b, eta_los, eta_nlos = ENVIRONMENTS[name]
    return LosProbabilityModel(a, b), ExcessLoss(eta_los, eta_nlos)


def coverage_radius(altitude, max_path_loss, frequency, los, excess):
    """The coverage radius of one altitude."""
    return float(coverage_radii([altitude], max_path_loss, frequency, los,
                                excess)[0])


def coverage_curve(altitude_range, max_path_loss, frequency, los, excess,
                   grid_step=1.0):
    """``(altitudes, radii)`` of the grid over ``altitude_range``."""
    altitudes = altitude_grid(altitude_range, grid_step)
    return altitudes, coverage_radii(altitudes, max_path_loss, frequency,
                                     los, excess)


def optimal_altitude(altitude_range, max_path_loss, frequency, los, excess,
                     grid_step=1.0):
    """``(altitude, radius)`` at the first maximum of the curve, as the
    CLI's manifest records it."""
    altitudes, radii = coverage_curve(altitude_range, max_path_loss,
                                      frequency, los, excess, grid_step)
    best = np.argmax(radii)
    return float(altitudes[best]), float(radii[best])


def scan_radius_oracle(altitude, max_pl, frequency, los, excess, step=0.1):
    # Brute-force grid scan, one range at a time through the numpy loss:
    # largest range whose loss stays under threshold.
    best = 0.0
    r = 0.0
    limit = 100_000.0
    while r <= limit:
        if expected_path_loss(altitude, r, frequency, los, excess) <= max_pl:
            best = r
        elif best > 0.0:
            break
        r += step
    return best


def reference_coverage_radius(altitude, max_path_loss, frequency, los, excess,
                              tolerance=0.1):
    # The bisection of one altitude alone, one range at a time through the
    # numpy loss: the reference the lockstep bisection of a whole grid
    # must equal bit for bit.
    def loss(r):
        return expected_path_loss(altitude, r, frequency, los, excess)

    if loss(0.0) > max_path_loss:
        return 0.0
    hi = max(altitude, 1.0)
    while loss(hi) <= max_path_loss:
        hi *= 2.0
        if hi > 1e9:
            return hi
    lo = 0.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if loss(mid) <= max_path_loss:
            lo = mid
        else:
            hi = mid
    return lo


def reference_altitude_grid(altitude_range, grid_step):
    # The running sum h += grid_step one altitude at a time: the grid that
    # the chunked np.add.accumulate of altitude_grid must equal bit for
    # bit, with the same ValueError past coverage.MAX_GRID_POINTS values.
    lo, hi = altitude_range
    grid = []
    h = lo
    while h <= hi + 1e-12:
        if len(grid) == coverage.MAX_GRID_POINTS:
            raise ValueError(f"more than {coverage.MAX_GRID_POINTS} "
                             f"altitudes from {lo} to {hi} in steps of "
                             f"grid_step {grid_step}")
        grid.append(h)
        h += grid_step
    return grid


class TestLosProbability:
    def test_in_unit_interval(self):
        for theta in range(0, 91):
            p = URBAN_LOS.los_probability(theta)
            assert 0.0 < p < 1.0

    def test_nondecreasing_in_elevation(self):
        values = [URBAN_LOS.los_probability(theta / 2.0)
                  for theta in range(0, 181)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_parameters_positive(self):
        with pytest.raises(ValueError):
            LosProbabilityModel(0.0, 0.16)

    def test_exp_overflow_boundary(self):
        # exp(a * b), taken at elevation 0, is the largest exp the sigmoid
        # computes: the model is built exactly while it is finite.
        steepest = LosProbabilityModel(1.0, 709.782712893384)
        assert 0.0 < steepest.los_probability(0.0) < 1e-307
        with pytest.raises(ValueError, match="overflows exp"):
            LosProbabilityModel(1.0, np.nextafter(709.782712893384, np.inf))

    def test_presets_available(self):
        for name in ("suburban", "urban", "dense_urban"):
            los, excess = environment(name)
            assert excess.eta_nlos > excess.eta_los


class TestExpectedPathLoss:
    def test_zero_excess_equals_fspl(self):
        for h, r in [(50.0, 0.0), (100.0, 500.0), (2000.0, 3000.0)]:
            fspl = free_space_path_loss(LinkGeometry(r, h), F2GHZ)
            assert expected_path_loss(h, r, F2GHZ, URBAN_LOS,
                                      NO_EXCESS) == pytest.approx(fspl,
                                                                  abs=1e-12)

    def test_nadir_geometry(self):
        # Directly overhead: theta = 90 deg, P_LoS ~ 1 for urban defaults.
        h = 100.0
        loss = expected_path_loss(h, 0.0, F2GHZ, URBAN_LOS, URBAN_EXCESS)
        fspl = free_space_path_loss(LinkGeometry(0.0, h), F2GHZ)
        assert loss == pytest.approx(fspl + 1.0, abs=0.1)

    def test_regression_pinned_value(self):
        # Independent single-expression oracle for a=9.61, b=0.16,
        # eta=1/20 dB, f=2 GHz, h=100 m, r=500 m:
        d = math.hypot(500.0, 100.0)
        fspl = 20.0 * math.log10(4.0 * math.pi * d * F2GHZ / 2.998e8)
        theta = math.degrees(math.atan2(100.0, 500.0))
        p = 1.0 / (1.0 + 9.61 * math.exp(-0.16 * (theta - 9.61)))
        expected = p * (fspl + 1.0) + (1.0 - p) * (fspl + 20.0)
        value = expected_path_loss(100.0, 500.0, F2GHZ, URBAN_LOS,
                                   URBAN_EXCESS)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(110.3347, abs=1e-3)  # frozen oracle

    def test_nondecreasing_in_range(self):
        for h in (50.0, 100.0, 500.0, 1500.0):
            losses = [expected_path_loss(h, r, F2GHZ, URBAN_LOS, URBAN_EXCESS)
                      for r in range(0, 5000, 25)]
            assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.01, 50.0), b=st.floats(0.001, 15.0),
           eta_los=st.floats(0.0, 100.0), extra=st.floats(0.0, 100.0),
           altitude=st.floats(1.0, 1e4), frequency=st.floats(1e8, 1e10),
           near=st.floats(0.0, 1e6), gap=st.floats(0.0, 1e3))
    def test_nondecreasing_in_range_for_valid_models(
            self, a, b, eta_los, extra, altitude, frequency, near, gap):
        # What the coverage bisection relies on: fspl + eta_nlos -
        # p_los*(eta_nlos - eta_los) with p_los non-increasing in range
        # never drops farther out, except by a few ulps of rounding.
        assume(a * b < 700.0)  # exp(a*b) at elevation 0 stays finite
        los = LosProbabilityModel(a, b)
        excess = ExcessLoss(eta_los, min(eta_los + extra, 100.0))
        near_loss, far_loss = expected_path_loss(
            altitude, np.array([near, near + gap]), frequency, los, excess)
        assert near_loss <= far_loss + 4 * np.spacing(far_loss)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            expected_path_loss(0.0, 100.0, F2GHZ, URBAN_LOS, URBAN_EXCESS)
        with pytest.raises(ValueError):
            expected_path_loss(100.0, -1.0, F2GHZ, URBAN_LOS, URBAN_EXCESS)


class TestExcessLoss:
    def test_nlos_must_not_be_better(self):
        with pytest.raises(ValueError):
            ExcessLoss(5.0, 4.0)


class TestCoverageRadius:
    def test_pure_free_space_closed_form(self):
        # eta = 0: radius solves FSPL(d_max) = max_pl exactly.
        h = 100.0
        max_pl = 100.0
        wavelength = 2.998e8 / F2GHZ
        d_max = 10.0 ** (max_pl / 20.0) * wavelength / (4.0 * math.pi)
        expected = math.sqrt(d_max ** 2 - h ** 2)
        radius = coverage_radius(h, max_pl, F2GHZ, URBAN_LOS, NO_EXCESS)
        assert radius == pytest.approx(expected, abs=0.1)

    def test_infeasible_at_nadir(self):
        h = 1000.0
        nadir_loss = expected_path_loss(h, 0.0, F2GHZ, URBAN_LOS,
                                        URBAN_EXCESS)
        assert coverage_radius(h, nadir_loss - 5.0, F2GHZ, URBAN_LOS,
                               URBAN_EXCESS) == 0.0

    def test_matches_scan_oracle(self):
        for h in [50.0, 150.0, 400.0, 800.0, 1200.0, 2000.0]:
            bisected = coverage_radius(h, 110.0, F2GHZ, URBAN_LOS,
                                       URBAN_EXCESS)
            scanned = scan_radius_oracle(h, 110.0, F2GHZ, URBAN_LOS,
                                         URBAN_EXCESS)
            assert bisected == pytest.approx(scanned, abs=0.2)


@st.composite
def coverage_models(draw):
    """One of ``ENVIRONMENTS``, or random valid s-curve and excess losses."""
    name = draw(st.sampled_from([None, *sorted(ENVIRONMENTS)]))
    if name is not None:
        return environment(name)
    eta_los = draw(st.floats(0.0, 10.0))
    return (LosProbabilityModel(draw(st.floats(0.5, 30.0)),
                                draw(st.floats(0.01, 2.0))),
            ExcessLoss(eta_los, eta_los + draw(st.floats(0.0, 40.0))))


class TestMatchesScalarReference:
    """The lockstep radii equal ``reference_coverage_radius``, which
    bisects one altitude at a time."""

    @settings(max_examples=150, deadline=None)
    @given(models=coverage_models(), frequency=st.floats(1e8, 6e9),
           lo=st.floats(1.0, 3000.0), step=st.floats(0.5, 500.0),
           count=st.integers(1, 12), data=st.data())
    def test_radii_bit_equal(self, models, frequency, lo, step, count, data):
        los, excess = models
        hi = lo + step * (count - 1)
        altitudes = altitude_grid((lo, hi), step).tolist()
        # Either any threshold, or the loss at a range that the bisection
        # of one altitude evaluates (the nadir or a bracket), so that its
        # comparison is a tie.
        h = data.draw(st.sampled_from(altitudes))
        k = data.draw(st.integers(-1, 6))
        tie = expected_path_loss(h, 0.0 if k < 0 else max(h, 1.0) * 2.0 ** k,
                                 frequency, los, excess)
        threshold = data.draw(st.one_of(st.just(tie), st.floats(40.0, 200.0)))
        grid, radii = coverage_curve((lo, hi), threshold, frequency, los,
                                     excess, step)
        expected = [reference_coverage_radius(h, threshold, frequency, los,
                                              excess) for h in altitudes]
        assert grid.tolist() == altitudes
        assert radii.tolist() == expected
        assert coverage_radius(h, threshold, frequency, los, excess) == \
            expected[altitudes.index(h)]

    @pytest.mark.parametrize("altitude,k", [(410.0, 0), (500.0, 0),
                                            (500.0, 3), (760.0, 0),
                                            (1000.0, 0), (2580.0, 2)])
    def test_threshold_at_a_bracket_loss(self, altitude, k):
        # The threshold is the loss at a bracket point, so the lockstep
        # bisection meets a tie there and must decide it as the bisection
        # of this altitude alone does.  (With AVX-512 numpy the loss here
        # differs from ``math``'s in the last bit.)
        los, excess = environment("suburban")
        threshold = expected_path_loss(altitude, altitude * 2.0 ** k, F2GHZ,
                                       los, excess)
        assert coverage_radius(altitude, threshold, F2GHZ, los, excess) == \
            reference_coverage_radius(altitude, threshold, F2GHZ, los, excess)

    def test_nadir_infeasible_and_feasible_in_one_grid(self):
        # At 100 dB the urban nadir loss passes the threshold near 1 km.
        altitudes, radii = coverage_curve((10.0, 3000.0), 100.0, F2GHZ,
                                          URBAN_LOS, URBAN_EXCESS,
                                          grid_step=10.0)
        assert 0.0 in radii and max(radii) > 0.0
        assert radii.tolist() == [
            reference_coverage_radius(h, 100.0, F2GHZ, URBAN_LOS,
                                      URBAN_EXCESS)
            for h in altitudes.tolist()]

    def test_unbounded_returns_the_bracket(self):
        altitudes, radii = coverage_curve((10.0, 500.0), 250.0, F2GHZ,
                                          URBAN_LOS, URBAN_EXCESS,
                                          grid_step=70.0)
        for h, r in zip(altitudes.tolist(), radii.tolist()):
            assert r > 1e9
            assert r == reference_coverage_radius(h, 250.0, F2GHZ, URBAN_LOS,
                                                  URBAN_EXCESS)

    def test_loss_that_rounds_downward_in_range(self):
        # Excess losses of 1e15 dB leave the loss a multiple of 0.125 dB,
        # which rounding can lower from one range to a larger one.  The
        # radius is still the bisection's: a scan of every 0.1 m up to the
        # bracket (380,001 ranges) found 37,999.7 m.
        excess = ExcessLoss(1e15, 1e15)
        radius = coverage_radius(100.0, 1e15 + 130.0, F2GHZ, URBAN_LOS,
                                 excess)
        assert radius == reference_coverage_radius(
            100.0, 1e15 + 130.0, F2GHZ, URBAN_LOS, excess)
        assert radius == pytest.approx(37993.95, abs=0.01)

    def test_exp_overflow_raises_like_math(self):
        # A sigmoid whose exp overflows is refused when its model is built,
        # so neither bisection can meet the overflow.
        with pytest.raises(ValueError, match=re.escape(
                "s_curve_a * s_curve_b = 750 overflows exp() in the LoS "
                "probability at elevation 0")):
            LosProbabilityModel(50.0, 15.0)


def grid_or_error(grid, altitude_range, grid_step):
    """``grid(altitude_range, grid_step)``, or its ValueError's text."""
    try:
        return grid(altitude_range, grid_step)
    except ValueError as exc:
        return str(exc)


@st.composite
def grid_steps(draw):
    """``(lo, hi, step)`` with a step from a few ulps of ``lo`` up to the
    whole range, so the running sum rounds, stalls or overshoots."""
    lo = draw(st.floats(1e-3, 1e17))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, lo * 4.0)))
    ulps = draw(st.integers(1, 2 ** 20))
    step = draw(st.one_of(
        st.just(ulps * math.ulp(lo)),
        st.just(math.ulp(lo) / 2.0),
        st.floats(math.ulp(lo), max(hi - lo, math.ulp(lo)) + 1.0)))
    return lo, hi, step


class TestAltitudeGrid:
    """``altitude_grid`` equals ``reference_altitude_grid``, the running
    sum one altitude at a time, bit for bit and in its errors."""

    @settings(max_examples=300, deadline=None)
    @given(case=grid_steps(), limit=st.integers(1, 9000))
    def test_equals_running_sum(self, case, limit):
        lo, hi, step = case
        with mock.patch.object(coverage, "MAX_GRID_POINTS", limit):
            grid = grid_or_error(altitude_grid, (lo, hi), step)
            expected = grid_or_error(reference_altitude_grid, (lo, hi), step)
        if isinstance(expected, str):
            assert grid == expected
        else:
            assert grid.dtype == np.float64 and grid.tolist() == expected

    @pytest.mark.parametrize("limit", [1, 7, 4096, 4097, 8193])
    def test_error_at_the_limit(self, monkeypatch, limit):
        # Exactly ``limit`` altitudes pass and one more is the error, also
        # where the limit ends a chunk or falls one past it.
        monkeypatch.setattr(coverage, "MAX_GRID_POINTS", limit)
        fits = altitude_grid((1.0, float(limit)), 1.0)
        assert fits.tolist() == reference_altitude_grid((1.0, float(limit)),
                                                        1.0)
        assert len(fits) == limit
        message = grid_or_error(reference_altitude_grid,
                                (1.0, limit + 1.0), 1.0)
        assert message == f"more than {limit} altitudes from 1.0 to " \
            f"{limit + 1.0} in steps of grid_step 1.0"
        assert grid_or_error(altitude_grid, (1.0, limit + 1.0),
                             1.0) == message

    @pytest.mark.parametrize("altitude_range,step", [
        ((1e17, 1e17), 1.0), ((10.0, 3000.0), 5e-324)])
    def test_stalled_sum_is_the_limit_error(self, monkeypatch,
                                            altitude_range, step):
        # A step too small to advance the running sum stops at the limit.
        monkeypatch.setattr(coverage, "MAX_GRID_POINTS", 5000)
        message = grid_or_error(reference_altitude_grid, altitude_range,
                                step)
        assert message.startswith("more than 5000 altitudes")
        assert grid_or_error(altitude_grid, altitude_range,
                             step) == message


class TestSameErrorsAsExpectedPathLoss:
    @pytest.mark.parametrize("altitude,frequency,sigmoid", [
        (0.0, F2GHZ, (9.61, 0.16)), (-5.0, F2GHZ, (9.61, 0.16)),
        (100.0, 0.0, (9.61, 0.16)), (100.0, -1.0, (9.61, 0.16)),
        (100.0, F2GHZ, (50.0, 15.0))],
        ids=["altitude_zero", "altitude_negative", "frequency_zero",
             "frequency_negative", "steep_sigmoid"])
    def test_radius_and_curve(self, altitude, frequency, sigmoid):
        # The bisection checks its inputs once, as the loss of one far range
        # does; a sigmoid whose exp overflows fails before any of them, when
        # its model is built.
        def los():
            return LosProbabilityModel(*sigmoid)

        with pytest.raises(ValueError) as expected:
            expected_path_loss(altitude, 1e6, frequency, los(), URBAN_EXCESS)
        kind, text = type(expected.value), re.escape(str(expected.value))
        with pytest.raises(kind, match=text):
            coverage_radius(altitude, 150.0, frequency, los(), URBAN_EXCESS)
        if altitude > 0:
            with pytest.raises(kind, match=text):
                coverage_curve((altitude, altitude + 50.0), 150.0, frequency,
                               los(), URBAN_EXCESS, grid_step=10.0)
        else:  # the grid itself refuses altitudes <= 0
            with pytest.raises(ValueError, match="altitude_range"):
                coverage_curve((altitude, 100.0), 150.0, frequency, los(),
                               URBAN_EXCESS)


class TestExpectedPathLossArray:
    def test_matches_scalar(self):
        # An array call equals the per-element calls bit for bit.
        altitudes = np.array([1.0, 10.0, 100.0, 1000.0, 3000.0])[:, None]
        ranges = np.array([0.0, 0.5, 50.0, 500.0, 5000.0, 1e6])[None, :]
        for name in sorted(ENVIRONMENTS):
            los, excess = environment(name)
            values = expected_path_loss(altitudes, ranges, F2GHZ, los,
                                        excess)
            assert values.shape == (5, 6)
            for (i, j), value in np.ndenumerate(values):
                assert value == expected_path_loss(
                    float(altitudes[i, 0]), float(ranges[0, j]), F2GHZ, los,
                    excess)

    @pytest.mark.parametrize("altitude,ground_range,message", [
        ([100.0, 0.0], 10.0, "altitude must be > 0"),
        (100.0, [10.0, -1.0], "ground_range must be >= 0"),
        ([-1.0, 100.0], [-1.0, 10.0], "altitude must be > 0")])
    def test_same_errors_as_scalar(self, altitude, ground_range, message):
        # An array call and a call on the smallest altitude and range
        # raise the same error.
        with pytest.raises(ValueError, match=message):
            expected_path_loss(altitude, ground_range, F2GHZ, URBAN_LOS,
                               URBAN_EXCESS)
        with pytest.raises(ValueError, match=message):
            expected_path_loss(float(np.min(altitude)),
                               float(np.min(ground_range)), F2GHZ,
                               URBAN_LOS, URBAN_EXCESS)


class TestOptimalAltitude:
    def test_free_space_only_prefers_lowest(self):
        h, _ = optimal_altitude((10.0, 500.0), 100.0, F2GHZ, URBAN_LOS,
                                NO_EXCESS, grid_step=10.0)
        assert h == 10.0

    def test_equal_excess_prefers_lowest(self):
        equal = ExcessLoss(3.0, 3.0)
        h, _ = optimal_altitude((10.0, 500.0), 105.0, F2GHZ, URBAN_LOS,
                                equal, grid_step=10.0)
        assert h == 10.0
        radii = [coverage_radius(alt, 105.0, F2GHZ, URBAN_LOS, equal)
                 for alt in (10.0, 100.0, 250.0, 500.0)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_urban_interior_optimum(self):
        h, r = optimal_altitude((10.0, 3000.0), 110.0, F2GHZ, URBAN_LOS,
                                URBAN_EXCESS, grid_step=10.0)
        assert 10.0 < h < 3000.0
        r_low = coverage_radius(10.0, 110.0, F2GHZ, URBAN_LOS, URBAN_EXCESS)
        r_high = coverage_radius(3000.0, 110.0, F2GHZ, URBAN_LOS,
                                 URBAN_EXCESS)
        assert r > r_low and r > r_high

    def test_grid_refinement_stability(self):
        coarse_step = 20.0
        h_coarse, _ = optimal_altitude((1500.0, 2500.0), 110.0, F2GHZ,
                                       URBAN_LOS, URBAN_EXCESS,
                                       grid_step=coarse_step)
        h_fine, _ = optimal_altitude((1500.0, 2500.0), 110.0, F2GHZ,
                                     URBAN_LOS, URBAN_EXCESS,
                                     grid_step=coarse_step / 10.0)
        assert abs(h_fine - h_coarse) < coarse_step

    def test_first_maximum_of_the_curve(self):
        altitudes, radii = coverage_curve((10.0, 3000.0), 110.0, F2GHZ,
                                          URBAN_LOS, URBAN_EXCESS,
                                          grid_step=10.0)
        # The grid is a running sum of steps, as the CSV writes it.
        assert altitudes.tolist() == reference_altitude_grid((10.0, 3000.0),
                                                             10.0)
        assert len(altitudes) == 300
        rows = list(zip(altitudes.tolist(), radii.tolist()))
        for h, radius in rows:
            assert radius == coverage_radius(h, 110.0, F2GHZ, URBAN_LOS,
                                             URBAN_EXCESS)
        best = max(radius for _, radius in rows)
        assert optimal_altitude((10.0, 3000.0), 110.0, F2GHZ, URBAN_LOS,
                                URBAN_EXCESS, grid_step=10.0) == \
            next(row for row in rows if row[1] == best)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            optimal_altitude((0.0, 100.0), 110.0, F2GHZ, URBAN_LOS,
                             URBAN_EXCESS)

    @pytest.mark.parametrize("bounds", [(10.0, math.inf), (math.nan, 100.0),
                                        (10.0, math.nan)])
    def test_non_finite_range(self, bounds):
        with pytest.raises(ValueError, match="altitude_range"):
            optimal_altitude(bounds, 110.0, F2GHZ, URBAN_LOS, URBAN_EXCESS)

    @pytest.mark.parametrize("step", [0.0, -10.0, float("nan")])
    def test_non_positive_grid_step(self, step):
        # A step that never advances the grid would loop forever.
        with pytest.raises(ValueError, match="grid_step"):
            optimal_altitude((10.0, 100.0), 110.0, F2GHZ, URBAN_LOS,
                             URBAN_EXCESS, grid_step=step)
