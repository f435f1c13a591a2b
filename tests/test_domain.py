"""The domain contract of the public kernels, as a property test.

Each kernel is called on float arguments drawn from ordinary values and
from the extremes 0, +-5e-324, +-1e308, +-inf and nan, with warnings as
errors.  A call must return without a warning, or raise ``DomainError``
naming only parameters of its own (a geometry's fields count as
parameters of the kernels that take the geometry).  Where a kernel returns
a value for an infinite or nan input, its docstring says what that value
is, and the test checks it.  The approach follows MacIver et al.,
"Hypothesis: A new approach to property-based testing" (JOSS, 2019).
"""

import dataclasses
import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uavsim import DomainError, coverage, dissemination
from uavsim.channel import (free_space_path_loss, snr_anchor_db,
                            spectral_efficiency)
from uavsim.coverage import altitude_grid, check_los_model, coverage_radii
from uavsim.dissemination import D2dGraph, compare_schemes, coverage_mask
from uavsim.mobility import (RelayGeometry, _sawtooth, _shuttle,
                             cycle_times, overflight_x)
from uavsim.relay import simulate_cycle
from test_mobility import flight_x

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
            math.nan]
values = st.one_of(st.sampled_from(EXTREMES), st.floats(0.1, 1e4),
                   st.floats(-1e4, 1e4))
arrays = st.lists(values, min_size=1, max_size=4).map(np.array)
# A float argument that broadcasts: one value, or an array of them.
broadcast = st.one_of(values, arrays)
GEOMETRY = {field.name for field in dataclasses.fields(RelayGeometry)}
EXAMPLES = settings(max_examples=100, deadline=None)


def call(kernel, *args):
    """``kernel(*args)`` with warnings as errors, or None where it raises a
    ``DomainError`` that names only parameters of its own."""
    own = set(inspect.signature(kernel).parameters)
    if "geom" in own:
        own |= GEOMETRY
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return kernel(*args)
        except DomainError as exc:
            assert exc.parameters and set(exc.parameters) <= own, (
                kernel.__name__, exc.parameters, str(exc))
            assert str(exc) == exc.render({})
            return None


# A link's separation and height, each one value or an array of a length
# they share.
links = st.integers(1, 4).flatmap(lambda size: st.tuples(*[st.one_of(
    values, st.lists(values, min_size=size, max_size=size).map(np.array))
    for _ in range(2)]))


@EXAMPLES
@given(link=links, frequency=values)
def test_free_space_path_loss(link, frequency):
    horizontal, height = link
    # inf where 4*pi*d*f is infinite, and never nan.
    loss = call(free_space_path_loss, horizontal, height, frequency)
    if loss is not None:
        assert not np.isnan(loss).any()
        infinite = np.isinf(horizontal) | np.isinf(height) | np.isinf(
            frequency)
        assert np.all(np.where(infinite, loss, np.inf) == np.inf)


@EXAMPLES
@given(frequency=values, snr=values, distance=values, height=values)
@example(5e9, 10.0, math.nan, 100.0)
def test_snr_anchor_db(frequency, snr, distance, height):
    # The reference link's loss is finite: an SNR of +-inf or nan gives
    # itself.
    anchor = call(snr_anchor_db, frequency, snr, distance, height)
    if anchor is not None:
        if math.isfinite(snr):
            assert math.isfinite(anchor)
        else:
            assert anchor == snr or math.isnan(anchor) and math.isnan(snr)


@EXAMPLES
@given(snr=broadcast)
@example(1e308)
def test_spectral_efficiency(snr):
    se = call(spectral_efficiency, snr)
    expected = np.where(np.asarray(snr) > 3082.56, math.inf, se)
    expected = np.where(np.asarray(snr) == -math.inf, 0.0, expected)
    assert np.array_equal(se, expected, equal_nan=True)
    assert np.array_equal(np.isnan(se), np.isnan(snr))
    assert np.all(np.isnan(se) | (se >= 0.0))


@EXAMPLES
@given(fields=st.tuples(values, values, values, values))
@example((math.nan, 100.0, 10.0, 10.0))
def test_relay_geometry(fields):
    geom = call(RelayGeometry, *fields)
    if geom is not None:
        assert geom.separation > 0 and geom.uav_altitude > 0
        assert geom.v_max >= 0 and geom.delay_budget > 0
        assert all(map(math.isfinite, fields))


# The geometries that ``RelayGeometry`` accepts, extremes among them.
positive = st.one_of(st.sampled_from([5e-324, 1e308]), st.floats(0.1, 1e4))
geometries = st.builds(RelayGeometry, positive, positive,
                       st.one_of(st.just(0.0), positive), positive)


@EXAMPLES
@given(geom=geometries, time_step=values)
def test_cycle_times(geom, time_step):
    # The caller bounds the samples a cycle holds (experiment's
    # MAX_CYCLE_SAMPLES): the test draws no cycle of more than 10**6.
    quotient = geom.delay_budget / time_step if time_step else math.inf
    assume(not 1e6 < abs(quotient) < math.inf)
    times = call(cycle_times, geom, time_step)
    if times is not None:
        assert len(times) % 2 and times[0] == 0.0
        assert np.all(np.isfinite(times))


# Sorted times >= 0, as the relay kernel flies them.
flight_times = st.lists(values.filter(lambda t: t >= 0), min_size=1,
                        max_size=4).map(sorted).map(np.array)


@EXAMPLES
@given(geom=geometries, times=flight_times)
@example(RelayGeometry(1000.0, 100.0, 10.0, 10.0), np.array([1e308]))
@pytest.mark.parametrize("shape", [_sawtooth, _shuttle])
def test_relay_x(shape, geom, times):
    x = call(flight_x, shape, geom, times)
    if x is not None:
        assert x.shape == times.shape and not np.isnan(x).any()
        if shape is _shuttle:
            assert np.all((x >= 0.0) & (x <= geom.separation))


points = st.tuples(values, values, values)


@EXAMPLES
@given(start=points, end=points, speed=values, times=arrays)
@example((-math.inf, 0.0, 100.0), (1000.0, 0.0, 100.0), 20.0, np.array([1.0]))
def test_overflight_x(start, end, speed, times):
    positions = call(overflight_x, start, end, speed, times)
    if positions is not None:
        assert positions.shape == (len(times), 3)
        assert np.all(np.isfinite(positions))
        # At an infinite time, the formula's end: a + 1 * (b - a).
        a, b = np.array(start), np.array(end)
        assert np.all(positions[times == math.inf] == a + (b - a))


@EXAMPLES
@given(lo=values, hi=values, step=values)
def test_altitude_grid(lo, hi, step):
    with mock.patch.object(coverage, "MAX_GRID_POINTS", 1000):
        grid = call(altitude_grid, (lo, hi), step)
    if grid is not None:
        assert grid[0] == lo and np.all(np.isfinite(grid))
        if step == math.inf:
            assert grid.tolist() == [lo]


def los_sigmoid(s_curve_a, s_curve_b):
    """The sigmoid ``(a, b)``, once ``check_los_model`` accepts it."""
    check_los_model(s_curve_a, s_curve_b)
    return s_curve_a, s_curve_b


@EXAMPLES
@given(sigmoid=st.tuples(values, values))
@example((math.nan, 1.0))
def test_los_probability_model(sigmoid):
    los = call(los_sigmoid, *sigmoid)
    if los is not None:
        s_curve_a, s_curve_b = los
        assert s_curve_a > 0 and s_curve_b > 0


URBAN = (9.61, 0.16)


@EXAMPLES
@given(altitude=arrays, max_path_loss=values, frequency=values,
       sigmoid=st.tuples(positive, positive), eta_los=values, eta_nlos=values)
@example(np.array([math.nan]), 110.0, 2e9, URBAN, 1.0, 20.0)
@example(np.array([100.0]), 110.0, 2e9, URBAN, math.nan, 20.0)
@example(np.array([100.0]), math.nan, 2e9, URBAN, 1.0, 20.0)
@example(np.array([1e308]), math.inf, 1e308, URBAN, 0.0, 20.0)
def test_coverage_radii(altitude, max_path_loss, frequency, sigmoid,
                        eta_los, eta_nlos):
    assume(call(los_sigmoid, *sigmoid) is not None)
    radii = call(coverage_radii, altitude, max_path_loss, frequency, *sigmoid,
                 eta_los, eta_nlos)
    if radii is not None:
        assert radii.shape == altitude.shape
        assert np.all(radii >= 0.0)
        # An infinite loss is covered only by an infinite threshold.
        infinite = (altitude == math.inf) | (frequency == math.inf) | (
            eta_los == math.inf)
        if max_path_loss < math.inf:
            assert np.all(radii[infinite] == 0.0)


def ground_positions(max_size):
    """(nodes, 2) arrays of up to ``max_size`` nodes, zero among them."""
    return st.lists(st.tuples(values, values), max_size=max_size).map(
        lambda nodes: np.reshape(nodes, (-1, 2)))


@EXAMPLES
@given(uav=st.lists(points, min_size=1, max_size=3),
       positions=ground_positions(3), radius=values)
def test_coverage_mask(uav, positions, radius):
    mask = call(coverage_mask, np.array(uav), positions, radius)
    if mask is not None:
        assert mask.shape == (len(uav), len(positions))
        if radius == math.inf:
            assert mask.all()


@EXAMPLES
@given(positions=ground_positions(4), d2d_range=values)
@example([(0.0, 0.0), (1.0, 0.0)], math.nan)
@example([(math.inf, 0.0), (0.0, 0.0)], 50.0)
def test_d2d_graph(positions, d2d_range):
    graph = call(D2dGraph, positions, d2d_range)
    if graph is not None:
        assert len(graph.labels) == len(positions)
        if d2d_range == math.inf:
            assert graph.component_count == min(1, len(positions))


# Two ground nodes in D2D range of each other, and a field of none.
PAIR = D2dGraph([(0.0, 0.0), (50.0, 0.0)], 100.0)
NOBODY = D2dGraph(np.zeros((0, 2)), 100.0)


def mask(slots, nodes):
    """A (slots, nodes) coverage mask that covers every node."""
    return np.ones((slots, nodes), dtype=bool)


def batch(seeds, nodes, width):
    """An empty (seeds, nodes, packets) matrix."""
    return np.zeros((seeds, nodes, width), dtype=bool)


def generators(count):
    """``count`` PCG64 generators, seeded 0, 1, ..."""
    return [np.random.default_rng(seed) for seed in range(count)]


@pytest.mark.parametrize("kernel,args,parameters", [
    # Accepted, misnamed or warned about before every check failed on nan
    # and every extreme was refused or documented.
    (snr_anchor_db, (5e9, 10.0, math.nan, 100.0), ("reference_distance",)),
    (RelayGeometry, (math.nan, 100.0, 10.0, 10.0), ("separation",)),
    (check_los_model, (math.nan, 1.0), ("s_curve_a",)),
    (coverage_radii, (np.array([math.nan]), 110.0, 2e9, *URBAN, 1.0, 20.0),
     ("altitude",)),
    (coverage_radii, (np.array([100.0]), 110.0, 2e9, *URBAN, math.nan, 20.0),
     ("eta_los",)),
    (coverage_radii, (np.array([100.0]), math.nan, 2e9, *URBAN, 1.0, 20.0),
     ("max_path_loss",)),
    (D2dGraph, ([(0.0, 0.0), (1.0, 0.0)], math.nan), ("d2d_range",)),
    (D2dGraph, ([(math.inf, 0.0), (0.0, 0.0)], 50.0), ("positions",)),
    (overflight_x, ((-math.inf, 0.0, 100.0), (1000.0, 0.0, 100.0), 20.0,
                    np.array([1.0])), ("start", "end")),
    (cycle_times, (RelayGeometry(1000.0, 100.0, 10.0, 1e308), 1e308),
     ("delay_budget",)),
    # More samples than an array can hold.
    (cycle_times, (RelayGeometry(1000.0, 100.0, 10.0, 1e20), 1.0),
     ("delay_budget", "time_step")),
    (simulate_cycle, ("ferry", RelayGeometry(1e-10, 100.0, 0.0, 1.0), 5e9,
                      10.0, 100.0), ("v_max", "separation", "delay_budget")),
    # Times that are not one-dimensional.
    (overflight_x, ((0.0, 0.0, 100.0), (1000.0, 0.0, 100.0), 20.0, 1.0),
     ("times",)),
    (overflight_x, ((0.0, 0.0, 100.0), (1000.0, 0.0, 100.0), 20.0,
                    np.zeros((2, 2))), ("times",)),
    # Dissemination batches that are empty, have no node, or whose seeds,
    # generators and nodes do not pair up.
    (dissemination.broadcast, (mask(4, 2), batch(0, 2, 4), 0.1, []),
     ("packets", "rngs")),
    (dissemination.broadcast,
     (mask(4, 2), batch(2, 2, 4), 0.1, generators(1)), ("packets", "rngs")),
    (dissemination.broadcast,
     (mask(4, 3), batch(1, 2, 4), 0.1, generators(1)),
     ("packets", "coverage")),
    (dissemination.exchange, (batch(0, 2, 4), PAIR, 4, [], 10),
     ("packets", "rngs")),
    (dissemination.exchange,
     (batch(1, 0, 4), NOBODY, 4, generators(1), 10), ("packets", "graph")),
    (dissemination.exchange,
     (batch(1, 3, 4), PAIR, 4, generators(1), 10), ("packets", "graph")),
    (dissemination.baseline, (mask(4, 2), batch(0, 2, 4), 0.1, [], 10),
     ("packets", "rngs")),
    (dissemination.baseline,
     (mask(4, 0), batch(1, 0, 4), 0.1, generators(1), 10),
     ("packets", "coverage")),
    (dissemination.baseline,
     (mask(4, 3), batch(1, 2, 4), 0.1, generators(1), 10),
     ("packets", "coverage")),
    (compare_schemes, (mask(4, 0), NOBODY, 4, 0.1, generators(1),
                       generators(1)), ("coverage", "graph")),
    (compare_schemes, (mask(4, 3), PAIR, 4, 0.1, generators(1),
                       generators(1)), ("coverage", "graph")),
    # Its block size would divide by slots + k + nodes = 0.
    (compare_schemes, (mask(4, 2), PAIR, -6, 0.1, generators(1),
                       generators(1)), ("k",)),
    # A packet width other than the slot count, and generators that do
    # not pair up, in either direction.
    (dissemination.broadcast, (mask(3, 2), batch(1, 2, 4), 0.1,
                               generators(1)), ("packets", "coverage")),
    (compare_schemes, (mask(4, 2), PAIR, 4, 0.1, generators(2),
                       generators(1)), ("coded_rngs", "baseline_rngs")),
    (compare_schemes, (mask(4, 2), PAIR, 4, 0.1, generators(1),
                       generators(2)), ("coded_rngs", "baseline_rngs")),
    # Caps that are not integers >= 0.
    (dissemination.baseline, (mask(2, 2), batch(1, 2, 3), 0.1, generators(1),
                              -1), ("pass_cap",)),
    (dissemination.baseline, (mask(2, 2), batch(1, 2, 3), 0.1, generators(1),
                              1.5), ("pass_cap",)),
    # A transmission count past int64, from a Python or a numpy integer.
    (dissemination.baseline, (mask(2, 2), batch(1, 2, 3), 0.1, generators(1),
                              10**20), ("pass_cap", "coverage")),
    (dissemination.baseline, (mask(2, 2), batch(1, 2, 3), 0.1, generators(1),
                              np.int64(2**62)), ("pass_cap", "coverage")),
    (dissemination.exchange, (batch(1, 2, 4), PAIR, 4, generators(1), -1),
     ("round_cap",)),
    (dissemination.exchange, (batch(1, 2, 4), PAIR, 4, generators(1), 1.5),
     ("round_cap",)),
    (dissemination.exchange,
     (batch(1, 2, 4), PAIR, 4, generators(1), math.nan), ("round_cap",)),
    (compare_schemes, (mask(4, 2), PAIR, 4, 0.1, generators(1),
                       generators(1), -1), ("round_cap",)),
    (compare_schemes, (mask(4, 2), PAIR, 4, 0.1, generators(1),
                       generators(1), 10, math.nan), ("pass_cap",)),
    # Arrays of another shape than the kernel takes.
    (D2dGraph, ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], 100.0), ("positions",)),
    (coverage_mask, (np.zeros((1, 3)), [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
                     100.0), ("positions",)),
    (coverage_mask, (np.zeros((1, 2)), [(0.0, 0.0)], 100.0), ("uav",)),
    (overflight_x, ((0.0, 0.0), (1.0, 1.0, 1.0), 20.0, np.zeros(1)),
     ("start", "end")),
    (overflight_x, ((0.0, 0.0), (1.0, 1.0), 20.0, np.zeros(1)),
     ("start", "end")),
    (coverage_radii, (100.0, 110.0, 2e9, *URBAN, 1.0, 20.0), ("altitude",)),
    (coverage_radii, (np.array([[100.0, 200.0]]), 110.0, 2e9, *URBAN, 1.0,
                      20.0), ("altitude",)),
    # Coverage masks that are not 2-D bool arrays: an integer mask would
    # index its draws by value, a float one not index them at all.
    *[(kernel, (coverage, *rest), ("coverage",))
      for coverage in (mask(4, 2).astype(int), mask(4, 2).astype(np.uint8),
                       mask(4, 2).astype(float), np.ones(2, dtype=bool),
                       mask(4, 2).tolist())
      for kernel, rest in (
          (dissemination.broadcast, (batch(1, 2, 4), 0.1, generators(1))),
          (dissemination.baseline, (batch(1, 2, 3), 0.1, generators(1), 10)),
          (compare_schemes, (PAIR, 4, 0.1, generators(1), generators(1))))],
])
def test_refused_naming_the_parameter(kernel, args, parameters):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as error:
            kernel(*args)
    assert error.value.parameters == parameters


@pytest.mark.parametrize("kernel,args,value", [
    (spectral_efficiency, (1e308,), math.inf),
    (flight_x, (_sawtooth, RelayGeometry(1000.0, 100.0, 10.0, 10.0),
                np.array([1e308])), -math.inf),
    (coverage_radii, (np.array([1e308]), math.inf, 2e9,
                      *URBAN, 1.0, 20.0), math.inf),
])
def test_extreme_value_without_warning(kernel, args, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel(*args) == value
