import math

import numpy as np
import pytest

from uavsim import DomainError, channel, relay
from uavsim.channel import (_free_space_loss, free_space_path_loss,
                            snr_anchor_db, spectral_efficiency)
from uavsim.experiment import preset_config
from uavsim.mobility import RelayGeometry, cycle_times
from uavsim.relay import STRATEGIES, simulate_cycle, sweep, sweep_plan
# The oracles below take the relay's positions from the kernel's flight,
# which test_mobility checks against the piecewise flight definitions.
from test_mobility import flown

CARRIER_HZ = 5e9
STATIC_SE = 0.5 * math.log2(11.0)  # closed-form static-relay oracle


def geom(v_max, delta=20.0):
    return RelayGeometry(separation=1000.0, uav_altitude=100.0,
                         v_max=v_max, delay_budget=delta)


def ref_for(g):
    """The reference SNR, dB, and distance, m: 10 dB at the midpoint."""
    return 10.0, g.midpoint_slant


def run(strategy, v_max, delta=20.0, **kwargs):
    g = geom(v_max, delta)
    return simulate_cycle(strategy, g, CARRIER_HZ, *ref_for(g), **kwargs)


def sweep_rows(columns):
    """The rows of ``sweep``'s columns: (delay, speed, strategy name, SE,
    feasible)."""
    assert len(columns) == 5
    return list(zip(*columns))


def active_gap(result):
    """The horizontal gap of the active link at each sample of a result."""
    gap = result.relay_x.copy()
    gap[result.phase1_samples:] -= result.geometry.separation
    return np.abs(gap)


def scalar_cycle(strategy, g, frequency, ref, buffer_capacity=math.inf,
                 time_step=0.01):
    """Per-step oracle: one link budget of one scalar link per sample,
    and a step-by-step buffer ledger.  Returns (bits_received,
    bits_delivered, peak, path losses, SE, occupancy)."""
    times, xs = flown(strategy, g, time_step)
    h = g.uav_altitude
    occupancy = received = delivered = peak = 0.0
    losses, ses, buffer = [], [], []
    for i, (t, x) in enumerate(zip(times.tolist(), xs.tolist())):
        src, dst = abs(x), abs(x - g.separation)
        losses.append((free_space_path_loss(src, h, frequency),
                       free_space_path_loss(dst, h, frequency)))
        buffer.append(occupancy)
        phase1 = t < g.delay_budget - 1e-12
        gap = src if phase1 else dst
        if strategy == "ferry" and gap > 1e-6:
            se = 0.0  # the ferry is silent in flight
        else:
            se = spectral_efficiency(
                snr_anchor_db(frequency, *ref, h)
                - free_space_path_loss(gap, h, frequency))
        ses.append(se)
        if i == len(times) - 1:
            break
        if phase1:
            accepted = min(se * time_step, buffer_capacity - occupancy)
            occupancy += accepted
            received += accepted
        else:
            drained = min(se * time_step, occupancy)
            occupancy -= drained
            delivered += drained
        peak = max(peak, occupancy)
    buffer[-1] = occupancy
    return received, delivered, peak, losses, ses, buffer


def assert_close(got, want, rel=1e-12, scale=None):
    """Element-wise closeness within ``rel`` of each value, or of ``scale``
    if given; nan matches nan and inf matches inf."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, equal_nan=True,
                               rtol=0.0 if scale else rel,
                               atol=rel * scale if scale else 0.0)


def path_loss_rows(result):
    """(t, src dB, dst dB) per sample of a result, as Python floats."""
    return list(zip(result.times.tolist(), result.path_loss_src.tolist(),
                    result.path_loss_dst.tolist()))


def assert_arrays_bitwise_equal(a, b):
    """Two results hold the same bits in every per-sample array."""
    for name in ("times", "path_loss_src", "path_loss_dst", "se",
                 "occupancy"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                  y.tobytes()), name


def assert_matches_scalar_cycle(result, oracle, g):
    received, delivered, peak, losses, ses, buffer = oracle
    assert_close([result.bits_received, result.bits_delivered,
                  result.peak_occupancy],
                 [received, delivered, peak])
    assert_close(result.end_to_end_se, delivered / (2.0 * g.delay_budget))
    assert_close(np.column_stack([result.path_loss_src,
                                  result.path_loss_dst]), losses)
    assert_close(result.se, ses)
    # An occupancy that drains to zero keeps a summation-order residue,
    # so occupancies are compared relative to the peak.
    assert_close(result.occupancy, buffer,
                 scale=peak if math.isfinite(peak) else None)


class TestScalarEquivalence:
    """The vectorised cycle reproduces the per-step scalar loop."""

    @pytest.mark.parametrize("strategy,v,capacity", [
        ("mobile", 100.0, math.inf),
        ("mobile", 100.0, 40.0),
        ("static", 0.0, 10.0),
        ("ferry", 100.0, math.inf)])
    def test_free_space(self, strategy, v, capacity):
        g = geom(v)
        oracle = scalar_cycle(strategy, g, CARRIER_HZ, ref_for(g), capacity,
                              time_step=0.05)
        result = simulate_cycle(strategy, g, CARRIER_HZ, *ref_for(g), capacity,
                                time_step=0.05)
        assert_matches_scalar_cycle(result, oracle, g)


def two_link_cycle(strategy, g, frequency, ref, buffer_capacity,
                   time_step):
    """Oracle that evaluates both links at every sample and keeps the
    active one.  Returns (path losses to source and destination, SE,
    occupancy)."""
    times, xs = flown(strategy, g, time_step)
    src, dst = np.abs(xs), np.abs(xs - g.separation)
    pl_src = free_space_path_loss(src, g.uav_altitude, frequency)
    pl_dst = free_space_path_loss(dst, g.uav_altitude, frequency)
    phase1 = times < g.delay_budget - 1e-12
    snr_db = (snr_anchor_db(frequency, *ref, g.uav_altitude)
              - np.where(phase1, pl_src, pl_dst))
    talking = np.full(len(times), True)
    if strategy == "ferry":
        talking = np.where(phase1, src, dst) <= 1e-6
    se = np.where(talking, spectral_efficiency(snr_db), 0.0)
    occupancy = [0.0]
    for offered, fill in zip(se[:-1] * time_step, phase1[:-1]):
        occupancy.append(min(occupancy[-1] + offered, buffer_capacity)
                         if fill else max(occupancy[-1] - offered, 0.0))
    return pl_src, pl_dst, se, np.array(occupancy)


class TestActiveLink:
    """A cycle that evaluates only the active link gives the same bits as
    one that evaluates both links and keeps the active one."""

    @pytest.mark.parametrize("capacity", [math.inf, 40.0])
    @pytest.mark.parametrize("frequency", [CARRIER_HZ], ids=["free_space"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_two_link_oracle(self, strategy, frequency, capacity):
        g = geom(100.0)
        pl_src, pl_dst, se, occupancy = two_link_cycle(
            strategy, g, frequency, ref_for(g), capacity, 0.05)
        result = simulate_cycle(strategy, g, frequency, *ref_for(g), capacity,
                                time_step=0.05)
        assert np.array_equal(result.se, se)
        assert np.array_equal(result.path_loss_src, pl_src)
        assert np.array_equal(result.path_loss_dst, pl_dst)
        assert np.array_equal(result.occupancy, occupancy)


# (strategy, v_max, delta, altitude): every strategy, a relay at v = 0, a
# hovering one (v = 100) and one that turns around (v = 10), a ferry that
# hovers and one that never does (v*delta = R), and a second altitude.
BATCH = [("static", 10.0, 5.0, 100.0),
         ("mobile", 0.0, 5.0, 100.0),
         ("mobile", 100.0, 5.0, 100.0),
         ("ferry", 100.0, 10.0, 100.0),
         ("mobile", 10.0, 10.0, 100.0),
         ("mobile", 100.0, 20.0, 100.0),
         ("ferry", 100.0, 20.0, 100.0),
         ("mobile", 100.0, 20.0, 250.0),
         ("static", 0.0, 20.0, 250.0),
         ("static", 0.0, 20.0, 100.0)]


def batch_cycles():
    return [(strategy, RelayGeometry(1000.0, h, v, delta))
            for strategy, v, delta, h in BATCH]


def result_bytes(result):
    """Every field and lazy column of a result, down to the bits."""
    arrays = (result.times, result.relay_x, result.se, result.occupancy,
              result.active_path_loss, result.path_loss_src,
              result.path_loss_dst)
    return (result.strategy, result.geometry, result.carrier_frequency,
            result.phase1_samples,
            np.array([result.bits_received, result.bits_delivered,
                      result.end_to_end_se, result.peak_occupancy]).tobytes(),
            [(a.dtype, a.shape, a.tobytes()) for a in arrays])


class TestBatchKernel:
    """One batch gives each cycle the bits of a batch of that cycle
    alone."""

    REF = ref_for(geom(1.0))

    @pytest.mark.parametrize("capacity", [math.inf, 40.0])
    def test_batch_equals_one_cycle_batches(self, capacity):
        cycles = batch_cycles()
        batch = list(relay._simulate_cycles(cycles, CARRIER_HZ, *self.REF,
                                            capacity, time_step=0.05))
        assert len(batch) == len(cycles)
        for (strategy, g), result in zip(cycles, batch):
            alone = simulate_cycle(strategy, g, CARRIER_HZ, *self.REF,
                                   capacity, time_step=0.05)
            assert result_bytes(result) == result_bytes(alone)

    def test_anchor_once_per_altitude(self, monkeypatch):
        anchors = []

        def counting(frequency, snr_db, distance, height):
            anchors.append(height)
            return snr_anchor_db(frequency, snr_db, distance, height)

        monkeypatch.setattr(relay, "snr_anchor_db", counting)
        list(relay._simulate_cycles(batch_cycles(), CARRIER_HZ, *self.REF,
                                    time_step=0.05))
        assert anchors == [100.0, 250.0]

    def test_cycles_at_one_delay_share_one_read_only_grid(self,
                                                          monkeypatch):
        delays = []

        def counting(g, time_step):
            delays.append(g.delay_budget)
            return cycle_times(g, time_step)

        monkeypatch.setattr(relay, "cycle_times", counting)
        results = list(relay._simulate_cycles(batch_cycles(), CARRIER_HZ,
                                              *self.REF, time_step=0.05))
        assert delays == [5.0, 10.0, 20.0]
        grids = {}
        for result in results:
            delta = result.geometry.delay_budget
            assert result.times is grids.setdefault(delta, result.times)
            assert not result.times.flags.writeable
        assert sorted(grids) == delays
        for delta, times in grids.items():
            assert times.tobytes() == cycle_times(geom(1.0, delta),
                                                  0.05).tobytes()
        with pytest.raises(ValueError):
            results[0].times[0] = 1.0

    def test_run_lengths_only_where_a_gap_can_repeat(self, monkeypatch):
        # Only a flight with a constant leg (parked, hovering overhead, or
        # the ferry's hover) can repeat its gap, so a relay that turns
        # around skips the run-length step and evaluates every sample.
        scans, links = [], []
        flatnonzero = np.flatnonzero

        def counting_scan(a):
            scans.append(len(a))
            return flatnonzero(a)

        def counting_slant(distance, *args, **kwargs):
            links.append(len(distance))
            return _free_space_loss(distance, *args, **kwargs)

        monkeypatch.setattr(np, "flatnonzero", counting_scan)
        monkeypatch.setattr(relay, "_free_space_loss", counting_slant)
        turning = [("mobile", geom(v)) for v in (10.0, 30.0)]
        results = list(relay._simulate_cycles(turning, CARRIER_HZ,
                                              *self.REF, time_step=0.05))
        assert scans == [] and links == [801, 801]
        for result in results:
            loss = free_space_path_loss(active_gap(result), 100.0,
                                        CARRIER_HZ)
            assert result.active_path_loss.tobytes() == loss.tobytes()
        list(relay._simulate_cycles(turning + [("static", geom(0.0))],
                                    CARRIER_HZ, *self.REF, time_step=0.05))
        assert scans == [801 + 1]
        assert links[2:4] == [801, 801] and links[4] < 801

    def test_run_length_links_match_every_sample(self):
        # The kernel evaluates one link per run of equal gaps; the oracle
        # evaluates every sample's own link.
        repeats = 0
        for result in relay._simulate_cycles(batch_cycles(), CARRIER_HZ,
                                             *self.REF, time_step=0.05):
            h = result.geometry.uav_altitude
            gap = active_gap(result)
            repeats += np.count_nonzero(np.diff(gap) == 0)
            loss = free_space_path_loss(gap, h, CARRIER_HZ)
            se = spectral_efficiency(snr_anchor_db(CARRIER_HZ, *self.REF, h)
                                     - loss)
            if result.strategy == "ferry":
                se[gap > 1e-6] = 0.0
            assert result.active_path_loss.tobytes() == loss.tobytes()
            assert result.se.tobytes() == se.tobytes()
        assert repeats > 0


class TestSimulateCycle:
    def test_static_closed_form(self):
        result = run("static", 0.0)
        assert result.end_to_end_se == pytest.approx(STATIC_SE, abs=1e-4)
        assert result.end_to_end_se == pytest.approx(1.7297, abs=1e-4)

    def test_mobile_v100(self):
        # Oracle: 1 ms-step integration over the closed-form trajectory
        # gives 3.3732 bps/Hz.
        result = run("mobile", 100.0)
        assert result.end_to_end_se == pytest.approx(3.37, abs=0.02)

    def test_mobile_v0_matches_static_bitwise(self):
        mobile = run("mobile", 0.0)
        static = run("static", 0.0)
        assert mobile.bits_received == static.bits_received
        assert mobile.bits_delivered == static.bits_delivered
        assert mobile.end_to_end_se == static.end_to_end_se
        assert_arrays_bitwise_equal(mobile, static)

    def test_ferry_v100(self):
        # Closed form: log2(261) * (delta - R/v) / (2*delta) = 2.007.
        result = run("ferry", 100.0)
        assert result.end_to_end_se == pytest.approx(2.007, abs=0.01)

    def test_ferry_infeasible_propagates(self):
        with pytest.raises(DomainError):
            run("ferry", 49.0)

    @pytest.mark.parametrize("frequency", [CARRIER_HZ], ids=["free_space"])
    def test_each_link_path_loss_evaluated_once(self, monkeypatch,
                                                frequency):
        # The cycle evaluates only the active link, once per run of equal
        # gaps, and keeps its loss; each per-link column evaluates only its
        # inactive half, on its first read, and is kept.  Each call records
        # its link count, or None for the SNR anchor's one scalar link.
        calls = []

        def counting(horizontal_separation, *args):
            calls.append(len(horizontal_separation)
                         if np.ndim(horizontal_separation) else None)
            return free_space_path_loss(horizontal_separation, *args)

        def counting_slant(distance, *args, **kwargs):
            calls.append(len(distance))
            return _free_space_loss(distance, *args, **kwargs)

        # The anchor looks the formula up in ``channel`` and the per-link
        # columns in ``relay``; the cycle's links, whose gaps and height
        # are known to be valid, go through the unchecked form of slant
        # distances.
        monkeypatch.setattr(channel, "free_space_path_loss", counting)
        monkeypatch.setattr(relay, "free_space_path_loss", counting)
        monkeypatch.setattr(relay, "_free_space_loss", counting_slant)
        for strategy in STRATEGIES:
            calls.clear()
            result = simulate_cycle(strategy, geom(100.0), frequency,
                                    *ref_for(geom(100.0)), time_step=0.1)
            n, split = len(result.times), result.phase1_samples
            assert 0 < split < n
            runs = 1 + np.count_nonzero(np.diff(active_gap(result)))
            assert runs < n  # the relays hover, or never move
            assert calls.count(None) == 1
            assert [c for c in calls if c is not None] == [runs]
            result.path_loss_src
            assert [c for c in calls if c is not None] == [runs, n - split]
            result.path_loss_dst
            assert [c for c in calls if c is not None] == [runs, n - split,
                                                           split]
            result.path_loss_src, result.path_loss_dst
            assert len(calls) == 4

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            run("static", 0.0, buffer_capacity=-1.0)

    def test_conservation(self):
        for strategy, v in [("mobile", 100.0),
                            ("mobile", 30.0),
                            ("static", 0.0),
                            ("ferry", 60.0)]:
            for capacity in [math.inf, 40.0, 10.0]:
                result = run(strategy, v, buffer_capacity=capacity)
                final_occupancy = float(result.occupancy[-1])
                assert result.bits_delivered + final_occupancy == \
                    pytest.approx(result.bits_received, abs=1e-9)
                assert result.bits_delivered <= result.bits_received + 1e-12

    def test_symmetric_geometry_delivers_everything(self):
        for strategy, v in [("mobile", 100.0),
                            ("static", 0.0)]:
            result = run(strategy, v)
            assert result.bits_delivered == pytest.approx(
                result.bits_received, abs=1e-6)

    def test_time_step_convergence(self):
        # Halving the default 10 ms step moves the result by < 0.1%.
        for strategy, v in [("mobile", 100.0),
                            ("ferry", 100.0),
                            ("static", 0.0)]:
            coarse = run(strategy, v, time_step=0.01).end_to_end_se
            fine = run(strategy, v, time_step=0.005).end_to_end_se
            assert abs(fine - coarse) / coarse < 1e-3

class TestTraces:
    def test_traces_hold_python_floats(self):
        result = run("mobile", 100.0, time_step=0.1)
        trace = result.se_trace
        assert isinstance(trace, tuple)
        assert all(type(v) is float for row in trace for v in row)
        assert trace == tuple(zip(result.times.tolist(), result.se.tolist()))
        for value in (result.bits_received, result.bits_delivered,
                      result.end_to_end_se, result.peak_occupancy):
            assert type(value) is float


class TestPathLossTrace:
    def test_mobile_plateau(self):
        trace = path_loss_rows(run("mobile", 100.0,
                                   time_step=0.01))
        plateau_value = 86.42696479691709  # FSPL(100 m) oracle
        src_plateau = [t for t, pl_src, _ in trace
                       if t < 20.0 and abs(pl_src - plateau_value) < 1e-9]
        assert max(src_plateau) - min(src_plateau) == pytest.approx(10.0,
                                                                    abs=0.02)
        dst_plateau = [t for t, _, pl_dst in trace
                       if t >= 20.0 and abs(pl_dst - plateau_value) < 1e-9]
        assert max(dst_plateau) - min(dst_plateau) == pytest.approx(10.0,
                                                                    abs=0.02)

    def test_static_constant(self):
        trace = path_loss_rows(run("static", 0.0,
                                   time_step=0.1))
        for _, pl_src, pl_dst in trace:
            assert pl_src == pytest.approx(100.57, abs=0.01)
            assert pl_dst == pytest.approx(100.57, abs=0.01)

    def test_plateau_vs_static_gap(self):
        mobile = path_loss_rows(run("mobile", 100.0,
                                    time_step=0.01))
        static = path_loss_rows(run("static", 0.0,
                                    time_step=0.01))
        plateau = min(pl_src for _, pl_src, _ in mobile)
        gap = static[0][1] - plateau
        assert gap == pytest.approx(14.15, abs=0.05)


class TestSweepDelay:
    def test_mobile_to_static_ratio(self):
        rows = sweep_rows(sweep(
            sweep_plan(["static", "mobile"], geom(1.0, 1.0),
                       delays=[20.0, 40.0], speeds=[100.0]),
            CARRIER_HZ, *ref_for(geom(1.0)), time_step=0.01))
        by_key = {(delta, strategy): se for delta, _, strategy, se, _ in rows}
        ratio20 = by_key[(20.0, "mobile")] / by_key[(20.0, "static")]
        ratio40 = by_key[(40.0, "mobile")] / by_key[(40.0, "static")]
        assert ratio20 == pytest.approx(1.95, abs=0.03)
        assert ratio40 == pytest.approx(2.13, abs=0.02)
        assert ratio40 >= 2.0

    def test_static_rows_constant(self):
        _, _, _, ses, _ = sweep(sweep_plan(["static"], geom(1.0, 1.0),
                                           delays=[5.0, 10.0, 20.0],
                                           speeds=[10.0, 100.0]),
                                CARRIER_HZ, *ref_for(geom(1.0)),
                                time_step=0.01)
        values = {round(se, 9) for se in ses}
        assert len(values) == 1

    def test_mobile_nondecreasing_in_speed(self):
        _, _, _, ses, _ = sweep(sweep_plan(["mobile"], geom(1.0, 1.0),
                                           delays=[20.0],
                                           speeds=[10.0, 30.0, 60.0, 100.0]),
                                CARRIER_HZ, *ref_for(geom(1.0)),
                                time_step=0.01)
        assert all(a <= b + 1e-9 for a, b in zip(ses, ses[1:]))

    def test_infeasible_ferry_cell_recorded(self):
        plan = sweep_plan(["ferry"], geom(1.0, 1.0), delays=[10.0],
                          speeds=[50.0, 200.0])
        rows = sweep_rows(sweep(plan, CARRIER_HZ, *ref_for(geom(1.0)),
                                time_step=0.01))
        (_, _, _, se, feasible), (*_, fast_feasible) = rows
        assert not feasible and se is None
        # The plan's cell keeps the reason: (delay, speed, strategy, cycle
        # key, note).
        cells, _ = plan
        assert cells[0][3] is None
        assert "minimum feasible speed" in cells[0][4]
        assert fast_feasible and cells[1][4] == ""

    def test_static_cycle_once_per_delay(self, monkeypatch):
        # The grid's distinct cycles go through one batch, which holds
        # each static cycle once per delay.
        batches = []

        def counting(cycles, *args, **kwargs):
            cycles = list(cycles)
            batches.append([strategy for strategy, _ in cycles])
            return kernel(cycles, *args, **kwargs)

        kernel = relay._simulate_cycles
        ref = ref_for(geom(1.0))
        plan = sweep_plan(["static", "mobile"], geom(1.0, 1.0), [5.0, 10.0],
                          [10.0, 30.0, 100.0])
        monkeypatch.setattr(relay, "_simulate_cycles", counting)
        rows = sweep_rows(sweep(plan, CARRIER_HZ, *ref, time_step=0.05))
        assert len(batches) == 1
        assert batches[0].count("static") == 2
        assert batches[0].count("mobile") == 6
        assert [row[:3] for row in rows] == [
            (d, v, s) for d in (5.0, 10.0) for v in (10.0, 30.0, 100.0)
            for s in ("static", "mobile")]
        for delta, v, strategy, se, feasible in rows:
            assert feasible == 1
            assert se == simulate_cycle(
                strategy, geom(v, delta), CARRIER_HZ, *ref,
                time_step=0.05).end_to_end_se

    def test_fig4_grid_evaluates_only_active_links(self, monkeypatch):
        # 20 distinct cycles of 2*delta/dt + 1 samples each, 124,020 in
        # all, evaluate one active link per run of equal gaps: 60,356
        # links, in one path-loss call per cycle, on one sample grid per
        # delay.  The SNR anchor is one scalar link, evaluated once for the
        # one altitude.
        config = preset_config("fig4")
        params = config.params
        samples, scalars, anchors, grids = [], [], [], []

        def counting_loss(horizontal_separation, *args):
            scalars.append(horizontal_separation)
            return free_space_path_loss(horizontal_separation, *args)

        def counting_slant(distance, *args, **kwargs):
            samples.append(np.size(distance))
            return _free_space_loss(distance, *args, **kwargs)

        def counting_anchor(*args):
            anchors.append(args)
            return snr_anchor_db(*args)

        def counting_grid(g, time_step):
            grids.append(g.delay_budget)
            return cycle_times(g, time_step)

        # The anchor's link goes through the checked formula in
        # ``channel``; the cycles' links through its unchecked form of
        # slant distances, in ``relay``.
        monkeypatch.setattr(channel, "free_space_path_loss", counting_loss)
        monkeypatch.setattr(relay, "free_space_path_loss", counting_loss)
        monkeypatch.setattr(relay, "_free_space_loss", counting_slant)
        monkeypatch.setattr(relay, "snr_anchor_db", counting_anchor)
        monkeypatch.setattr(relay, "cycle_times", counting_grid)
        template = RelayGeometry(params["separation_m"],
                                 params["uav_altitude_m"], 1.0, 1.0)
        sweep(sweep_plan(params["strategies"], template, params["delays_s"],
                         params["speeds_mps"]),
              params["carrier_frequency_hz"], params["reference_snr_db"],
              template.midpoint_slant, time_step=config.time_step)
        assert sum(samples) == 60_356
        assert len(samples) == 20
        assert len(anchors) == len(scalars) == 1
        assert grids == params["delays_s"] and len(grids) == 5

    def test_unknown_strategy_names_its_parameter(self):
        # Refused as a DomainError naming the parameter, not as the Enum's
        # own ValueError; a name with braces is not read as a field.
        with pytest.raises(DomainError) as error:
            sweep_plan(["static", "warp"], geom(1.0, 1.0), [5.0], [10.0])
        assert (str(error.value), error.value.parameters) == (
            "strategies: 'warp' is not static, mobile or ferry",
            ("strategies",))
        with pytest.raises(DomainError) as error:
            simulate_cycle("{delay_budget}", geom(10.0), CARRIER_HZ,
                           *ref_for(geom(10.0)))
        assert (str(error.value), error.value.parameters) == (
            "strategy: '{delay_budget}' is not static, mobile or ferry",
            ("strategy",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_plan(["static"], geom(1.0, 1.0), delays=[], speeds=[1.0])
        with pytest.raises(DomainError, match="delays and speeds"):
            sweep_plan(["static"], geom(1.0, 1.0), np.array([20.0]),
                       np.array([]))

    def test_array_grid_plans_as_lists(self):
        # Any sequence of delays and speeds: arrays give the plan that
        # lists give, the infeasible ferry's note included.
        delays, speeds = [20.0, 40.0], [10.0, 100.0]
        plan = sweep_plan(STRATEGIES, geom(1.0, 1.0), delays, speeds)
        assert plan[0][2][4].startswith("ferry infeasible")
        assert sweep_plan(STRATEGIES, geom(1.0, 1.0), np.array(delays),
                          np.array(speeds)) == plan


class TestDominanceGrid:
    def test_mobile_dominates_static_and_ferry(self):
        # All-feasible 10x10 grid: ferry needs v*delta >= R.
        delays = [10.0 + 5.0 * i for i in range(10)]
        speeds = [100.0 + 10.0 * i for i in range(10)]
        for delta in delays:
            for v in speeds:
                g = geom(v, delta)
                ref = ref_for(g)
                mobile = simulate_cycle("mobile", g, CARRIER_HZ,
                                        *ref, time_step=0.05).end_to_end_se
                static = simulate_cycle("static", g, CARRIER_HZ,
                                        *ref, time_step=0.05).end_to_end_se
                ferry = simulate_cycle("ferry", g, CARRIER_HZ,
                                       *ref, time_step=0.05).end_to_end_se
                assert mobile >= static - 1e-9
                assert mobile >= ferry - 1e-9
                # Flight legs exist (v > 0), so the gap is strict.
                assert mobile > ferry

    def test_mobile_monotone_in_speed_and_delay(self):
        delays = [10.0, 20.0, 30.0, 40.0]
        speeds = [10.0, 40.0, 70.0, 100.0]
        table = {}
        for delta in delays:
            for v in speeds:
                g = geom(v, delta)
                table[(delta, v)] = simulate_cycle(
                    "mobile", g, CARRIER_HZ, *ref_for(g),
                    time_step=0.05).end_to_end_se
        for delta in delays:
            ses = [table[(delta, v)] for v in speeds]
            assert all(a <= b + 1e-9 for a, b in zip(ses, ses[1:]))
        for v in speeds:
            ses = [table[(delta, v)] for delta in delays]
            assert all(a <= b + 1e-9 for a, b in zip(ses, ses[1:]))


class TestBufferRequirement:
    def test_mobile_v100(self):
        req = run("mobile", 100.0).peak_occupancy
        assert req == pytest.approx(134.9, abs=0.5)
        unbounded = run("mobile", 100.0)
        assert req == unbounded.bits_received  # everything buffered at t=delta

    def test_static_peak(self):
        req = run("static", 0.0).peak_occupancy
        assert req == pytest.approx(math.log2(11.0) * 20.0, abs=0.05)

    def test_half_capacity_strictly_reduces_se(self):
        req = run("mobile", 100.0).peak_occupancy
        unbounded = run("mobile", 100.0)
        clipped = run("mobile", 100.0, buffer_capacity=req / 2.0)
        assert clipped.end_to_end_se < unbounded.end_to_end_se
        assert clipped.peak_occupancy <= req / 2.0 + 1e-12

    def test_sufficient_capacity_reproduces_unbounded(self):
        req = run("mobile", 100.0).peak_occupancy
        unbounded = run("mobile", 100.0)
        exact = run("mobile", 100.0, buffer_capacity=req)
        assert exact.end_to_end_se == unbounded.end_to_end_se
