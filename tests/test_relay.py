import dataclasses
import math

import numpy as np
import pytest

from uavsim import relay
from uavsim.channel import (ChannelModel, LinkGeometry, SnrReference,
                            snr_anchor_db, spectral_efficiency)
from uavsim.experiment import preset_config
from uavsim.mobility import (FerryInfeasibleError, RelayGeometry, cycle_times,
                             ferry_x, mobile_relay_x)
from uavsim.relay import RelayStrategy, simulate_cycle, sweep, sweep_plan

CHANNEL = ChannelModel(carrier_frequency=5e9)
STATIC_SE = 0.5 * math.log2(11.0)  # closed-form static-relay oracle


def geom(v_max, delta=20.0):
    return RelayGeometry(separation=1000.0, uav_altitude=100.0,
                         v_max=v_max, delay_budget=delta)


def ref_for(g):
    return SnrReference(reference_snr_db=10.0,
                        reference_distance=g.midpoint_slant)


def run(strategy, v_max, delta=20.0, **kwargs):
    g = geom(v_max, delta)
    return simulate_cycle(strategy, g, CHANNEL, ref_for(g), **kwargs)


def cycle_samples(strategy, g, time_step):
    """The sample times of one cycle and the relay's horizontal position
    at each; the static relay is the mobile one at v_max = 0."""
    times = cycle_times(g, time_step)
    if strategy == RelayStrategy.FERRY:
        return times, ferry_x(g, times)
    if strategy == RelayStrategy.STATIC:
        g = dataclasses.replace(g, v_max=0.0)
    return times, mobile_relay_x(g, times)


def active_gap(result):
    """The horizontal gap of the active link at each sample of a result."""
    gap = result.relay_x.copy()
    gap[result.phase1_samples:] -= result.geometry.separation
    return np.abs(gap)


def scalar_cycle(strategy, g, channel, ref, buffer_capacity=math.inf,
                 time_step=0.01):
    """Per-step oracle: one link budget of one scalar geometry per
    sample, and a step-by-step buffer ledger.  Returns (bits_received,
    bits_delivered, peak, path losses, SE, occupancy)."""
    times, xs = cycle_samples(strategy, g, time_step)
    h = g.uav_altitude
    occupancy = received = delivered = peak = 0.0
    losses, ses, buffer = [], [], []
    for i, (t, x) in enumerate(zip(times.tolist(), xs.tolist())):
        src = LinkGeometry(abs(x), h)
        dst = LinkGeometry(abs(x - g.separation), h)
        losses.append((channel.path_loss_db(src), channel.path_loss_db(dst)))
        buffer.append(occupancy)
        phase1 = t < g.delay_budget - 1e-12
        link = src if phase1 else dst
        if (strategy == RelayStrategy.FERRY
                and link.horizontal_separation > 1e-6):
            se = 0.0  # the ferry is silent in flight
        else:
            se = spectral_efficiency(snr_anchor_db(channel, ref, h)
                                     - channel.path_loss_db(link))
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
        (RelayStrategy.MOBILE, 100.0, math.inf),
        (RelayStrategy.MOBILE, 100.0, 40.0),
        (RelayStrategy.STATIC, 0.0, 10.0),
        (RelayStrategy.FERRY, 100.0, math.inf)])
    def test_free_space(self, strategy, v, capacity):
        g = geom(v)
        oracle = scalar_cycle(strategy, g, CHANNEL, ref_for(g), capacity,
                              time_step=0.05)
        result = simulate_cycle(strategy, g, CHANNEL, ref_for(g), capacity,
                                time_step=0.05)
        assert_matches_scalar_cycle(result, oracle, g)


def two_link_cycle(strategy, g, channel, ref, buffer_capacity, time_step):
    """Oracle that evaluates both links at every sample and keeps the
    active one.  Returns (path losses to source and destination, SE,
    occupancy)."""
    times, xs = cycle_samples(strategy, g, time_step)
    src = LinkGeometry(np.abs(xs), g.uav_altitude)
    dst = LinkGeometry(np.abs(xs - g.separation), g.uav_altitude)
    pl_src, pl_dst = channel.path_loss_db(src), channel.path_loss_db(dst)
    phase1 = times < g.delay_budget - 1e-12
    snr_db = (snr_anchor_db(channel, ref, g.uav_altitude)
              - np.where(phase1, pl_src, pl_dst))
    talking = np.full(len(times), True)
    if strategy == RelayStrategy.FERRY:
        talking = np.where(phase1, src.horizontal_separation,
                           dst.horizontal_separation) <= 1e-6
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
    @pytest.mark.parametrize("channel", [CHANNEL], ids=["free_space"])
    @pytest.mark.parametrize("strategy", list(RelayStrategy),
                             ids=lambda s: s.value)
    def test_matches_two_link_oracle(self, strategy, channel, capacity):
        g = geom(100.0)
        pl_src, pl_dst, se, occupancy = two_link_cycle(
            strategy, g, channel, ref_for(g), capacity, 0.05)
        result = simulate_cycle(strategy, g, channel, ref_for(g), capacity,
                                time_step=0.05)
        assert np.array_equal(result.se, se)
        assert np.array_equal(result.path_loss_src, pl_src)
        assert np.array_equal(result.path_loss_dst, pl_dst)
        assert np.array_equal(result.occupancy, occupancy)


# (strategy, v_max, delta, altitude): every strategy, a relay at v = 0, a
# hovering one (v = 100) and one that turns around (v = 10), a ferry that
# hovers and one that never does (v*delta = R), and a second altitude.
BATCH = [(RelayStrategy.STATIC, 10.0, 5.0, 100.0),
         (RelayStrategy.MOBILE, 0.0, 5.0, 100.0),
         (RelayStrategy.MOBILE, 100.0, 5.0, 100.0),
         (RelayStrategy.FERRY, 100.0, 10.0, 100.0),
         (RelayStrategy.MOBILE, 10.0, 10.0, 100.0),
         (RelayStrategy.MOBILE, 100.0, 20.0, 100.0),
         (RelayStrategy.FERRY, 100.0, 20.0, 100.0),
         (RelayStrategy.MOBILE, 100.0, 20.0, 250.0),
         (RelayStrategy.STATIC, 0.0, 20.0, 250.0),
         (RelayStrategy.STATIC, 0.0, 20.0, 100.0)]


def batch_cycles():
    return [(strategy, RelayGeometry(1000.0, h, v, delta))
            for strategy, v, delta, h in BATCH]


def result_bytes(result):
    """Every field and lazy column of a result, down to the bits."""
    arrays = (result.times, result.relay_x, result.se, result.occupancy,
              result.active_path_loss, result.path_loss_src,
              result.path_loss_dst)
    return (result.strategy, result.geometry, result.channel,
            result.phase1_samples,
            np.array([result.bits_received, result.bits_delivered,
                      result.end_to_end_se, result.peak_occupancy]).tobytes(),
            [(a.dtype, a.shape, a.tobytes()) for a in arrays])


class TestBatchKernel:
    """One batch gives each cycle the bits of a batch of that cycle alone,
    wherever the block boundaries fall."""

    REF = SnrReference(10.0, geom(1.0).midpoint_slant)

    @pytest.mark.parametrize("capacity", [math.inf, 40.0])
    @pytest.mark.parametrize("block", [1, 500, 10 ** 9])
    def test_batch_equals_one_cycle_batches(self, monkeypatch, block,
                                            capacity):
        monkeypatch.setattr(relay, "_BLOCK_SAMPLES", block)
        cycles = batch_cycles()
        batch = list(relay._simulate_cycles(cycles, CHANNEL, self.REF,
                                            capacity, time_step=0.05))
        assert len(batch) == len(cycles)
        for (strategy, g), result in zip(cycles, batch):
            alone = simulate_cycle(strategy, g, CHANNEL, self.REF, capacity,
                                   time_step=0.05)
            assert result_bytes(result) == result_bytes(alone)

    def test_anchor_once_per_altitude(self, monkeypatch):
        anchors = []

        def counting(model, ref, height):
            anchors.append(height)
            return snr_anchor_db(model, ref, height)

        monkeypatch.setattr(relay, "snr_anchor_db", counting)
        list(relay._simulate_cycles(batch_cycles(), CHANNEL, self.REF,
                                    time_step=0.05))
        assert anchors == [100.0, 250.0]

    def test_run_length_links_match_every_sample(self):
        # The kernel evaluates one link per run of equal gaps; the oracle
        # evaluates every sample's own link.
        repeats = 0
        for result in relay._simulate_cycles(batch_cycles(), CHANNEL,
                                             self.REF, time_step=0.05):
            h = result.geometry.uav_altitude
            gap = active_gap(result)
            repeats += np.count_nonzero(np.diff(gap) == 0)
            loss = CHANNEL.path_loss_db(LinkGeometry(gap, h))
            se = spectral_efficiency(snr_anchor_db(CHANNEL, self.REF, h)
                                     - loss)
            if result.strategy == RelayStrategy.FERRY:
                se[gap > 1e-6] = 0.0
            assert result.active_path_loss.tobytes() == loss.tobytes()
            assert result.se.tobytes() == se.tobytes()
        assert repeats > 0


class TestSimulateCycle:
    def test_static_closed_form(self):
        result = run(RelayStrategy.STATIC, 0.0)
        assert result.end_to_end_se == pytest.approx(STATIC_SE, abs=1e-4)
        assert result.end_to_end_se == pytest.approx(1.7297, abs=1e-4)

    def test_mobile_v100(self):
        # Oracle: 1 ms-step integration over the closed-form trajectory
        # gives 3.3732 bps/Hz.
        result = run(RelayStrategy.MOBILE, 100.0)
        assert result.end_to_end_se == pytest.approx(3.37, abs=0.02)

    def test_mobile_v0_matches_static_bitwise(self):
        mobile = run(RelayStrategy.MOBILE, 0.0)
        static = run(RelayStrategy.STATIC, 0.0)
        assert mobile.bits_received == static.bits_received
        assert mobile.bits_delivered == static.bits_delivered
        assert mobile.end_to_end_se == static.end_to_end_se
        assert_arrays_bitwise_equal(mobile, static)

    def test_ferry_v100(self):
        # Closed form: log2(261) * (delta - R/v) / (2*delta) = 2.007.
        result = run(RelayStrategy.FERRY, 100.0)
        assert result.end_to_end_se == pytest.approx(2.007, abs=0.01)

    def test_ferry_infeasible_propagates(self):
        with pytest.raises(FerryInfeasibleError):
            run(RelayStrategy.FERRY, 49.0)

    @pytest.mark.parametrize("channel", [CHANNEL], ids=["free_space"])
    def test_each_link_path_loss_evaluated_once(self, monkeypatch, channel):
        # The cycle evaluates only the active link, once per run of equal
        # gaps, and keeps its loss; each per-link column evaluates only its
        # inactive half, on its first read, and is kept.  Each call records
        # its link count, or None for the SNR anchor's one scalar link.
        calls = []
        path_loss = ChannelModel.path_loss_db

        def counting(model, geometry):
            links = geometry.horizontal_separation
            calls.append(len(links) if np.ndim(links) else None)
            return path_loss(model, geometry)

        monkeypatch.setattr(ChannelModel, "path_loss_db", counting)
        for strategy in RelayStrategy:
            calls.clear()
            result = simulate_cycle(strategy, geom(100.0), channel,
                                    ref_for(geom(100.0)), time_step=0.1)
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
            run(RelayStrategy.STATIC, 0.0, buffer_capacity=-1.0)

    def test_conservation(self):
        for strategy, v in [(RelayStrategy.MOBILE, 100.0),
                            (RelayStrategy.MOBILE, 30.0),
                            (RelayStrategy.STATIC, 0.0),
                            (RelayStrategy.FERRY, 60.0)]:
            for capacity in [math.inf, 40.0, 10.0]:
                result = run(strategy, v, buffer_capacity=capacity)
                final_occupancy = float(result.occupancy[-1])
                assert result.bits_delivered + final_occupancy == \
                    pytest.approx(result.bits_received, abs=1e-9)
                assert result.bits_delivered <= result.bits_received + 1e-12

    def test_symmetric_geometry_delivers_everything(self):
        for strategy, v in [(RelayStrategy.MOBILE, 100.0),
                            (RelayStrategy.STATIC, 0.0)]:
            result = run(strategy, v)
            assert result.bits_delivered == pytest.approx(
                result.bits_received, abs=1e-6)

    def test_time_step_convergence(self):
        # Halving the default 10 ms step moves the result by < 0.1%.
        for strategy, v in [(RelayStrategy.MOBILE, 100.0),
                            (RelayStrategy.FERRY, 100.0),
                            (RelayStrategy.STATIC, 0.0)]:
            coarse = run(strategy, v, time_step=0.01).end_to_end_se
            fine = run(strategy, v, time_step=0.005).end_to_end_se
            assert abs(fine - coarse) / coarse < 1e-3

class TestTraces:
    def test_traces_hold_python_floats(self):
        result = run(RelayStrategy.MOBILE, 100.0, time_step=0.1)
        trace = result.se_trace
        assert isinstance(trace, tuple)
        assert all(type(v) is float for row in trace for v in row)
        assert trace == tuple(zip(result.times.tolist(), result.se.tolist()))
        for value in (result.bits_received, result.bits_delivered,
                      result.end_to_end_se, result.peak_occupancy):
            assert type(value) is float


class TestPathLossTrace:
    def test_mobile_plateau(self):
        trace = path_loss_rows(run(RelayStrategy.MOBILE, 100.0,
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
        trace = path_loss_rows(run(RelayStrategy.STATIC, 0.0,
                                   time_step=0.1))
        for _, pl_src, pl_dst in trace:
            assert pl_src == pytest.approx(100.57, abs=0.01)
            assert pl_dst == pytest.approx(100.57, abs=0.01)

    def test_plateau_vs_static_gap(self):
        mobile = path_loss_rows(run(RelayStrategy.MOBILE, 100.0,
                                    time_step=0.01))
        static = path_loss_rows(run(RelayStrategy.STATIC, 0.0,
                                    time_step=0.01))
        plateau = min(pl_src for _, pl_src, _ in mobile)
        gap = static[0][1] - plateau
        assert gap == pytest.approx(14.15, abs=0.05)


class TestSweepDelay:
    def test_mobile_to_static_ratio(self):
        rows = sweep(sweep_plan(["static", "mobile"], geom(1.0, 1.0),
                                delays=[20.0, 40.0], speeds=[100.0]),
                     CHANNEL, SnrReference(10.0, geom(1.0).midpoint_slant),
                     time_step=0.01)
        by_key = {(r.delay_budget, r.strategy): r.end_to_end_se for r in rows}
        ratio20 = (by_key[(20.0, RelayStrategy.MOBILE)]
                   / by_key[(20.0, RelayStrategy.STATIC)])
        ratio40 = (by_key[(40.0, RelayStrategy.MOBILE)]
                   / by_key[(40.0, RelayStrategy.STATIC)])
        assert ratio20 == pytest.approx(1.95, abs=0.03)
        assert ratio40 == pytest.approx(2.13, abs=0.02)
        assert ratio40 >= 2.0

    def test_static_rows_constant(self):
        ref = SnrReference(10.0, geom(1.0).midpoint_slant)
        rows = sweep(sweep_plan(["static"], geom(1.0, 1.0),
                                delays=[5.0, 10.0, 20.0],
                                speeds=[10.0, 100.0]),
                     CHANNEL, ref, time_step=0.01)
        values = {round(r.end_to_end_se, 9) for r in rows}
        assert len(values) == 1

    def test_mobile_nondecreasing_in_speed(self):
        ref = SnrReference(10.0, geom(1.0).midpoint_slant)
        rows = sweep(sweep_plan(["mobile"], geom(1.0, 1.0), delays=[20.0],
                                speeds=[10.0, 30.0, 60.0, 100.0]),
                     CHANNEL, ref, time_step=0.01)
        ses = [r.end_to_end_se for r in rows]
        assert all(a <= b + 1e-9 for a, b in zip(ses, ses[1:]))

    def test_infeasible_ferry_cell_recorded(self):
        ref = SnrReference(10.0, geom(1.0).midpoint_slant)
        rows = sweep(sweep_plan(["ferry"], geom(1.0, 1.0), delays=[10.0],
                                speeds=[50.0, 200.0]),
                     CHANNEL, ref, time_step=0.01)
        assert not rows[0].feasible and rows[0].end_to_end_se is None
        assert "minimum feasible speed" in rows[0].note
        assert rows[1].feasible

    def test_static_cycle_once_per_delay(self, monkeypatch):
        # The grid's distinct cycles go through one batch, which holds
        # each static cycle once per delay.
        batches = []

        def counting(cycles, *args, **kwargs):
            cycles = list(cycles)
            batches.append([strategy for strategy, _ in cycles])
            return kernel(cycles, *args, **kwargs)

        kernel = relay._simulate_cycles
        ref = SnrReference(10.0, geom(1.0).midpoint_slant)
        plan = sweep_plan(["static", "mobile"], geom(1.0, 1.0), [5.0, 10.0],
                          [10.0, 30.0, 100.0])
        monkeypatch.setattr(relay, "_simulate_cycles", counting)
        rows = sweep(plan, CHANNEL, ref, time_step=0.05)
        assert len(batches) == 1
        assert batches[0].count(RelayStrategy.STATIC) == 2
        assert batches[0].count(RelayStrategy.MOBILE) == 6
        assert [(r.delay_budget, r.v_max, r.strategy) for r in rows] == [
            (d, v, s) for d in (5.0, 10.0) for v in (10.0, 30.0, 100.0)
            for s in (RelayStrategy.STATIC, RelayStrategy.MOBILE)]
        for r in rows:
            g = geom(r.v_max, r.delay_budget)
            assert r.end_to_end_se == simulate_cycle(
                r.strategy, g, CHANNEL, ref, time_step=0.05).end_to_end_se

    def test_fig4_grid_evaluates_only_active_links(self, monkeypatch):
        # 20 distinct cycles of 2*delta/dt + 1 samples each, 124,020 in
        # all, evaluate one active link per run of equal gaps: 60,356
        # links, in one path-loss call per block of cycles.  The SNR
        # anchor is one scalar link, evaluated once for the one altitude.
        config = preset_config("fig4")
        params = config.params
        samples, scalars, builds, anchors = [], [], [], []
        path_loss = ChannelModel.path_loss_db
        post_init = LinkGeometry.__post_init__

        def counting_loss(model, geometry):
            if np.ndim(geometry.horizontal_separation):
                samples.append(np.size(geometry.horizontal_separation))
            else:
                scalars.append(geometry)
            return path_loss(model, geometry)

        def counting_build(geometry):
            builds.append(geometry)
            post_init(geometry)

        def counting_anchor(*args):
            anchors.append(args)
            return snr_anchor_db(*args)

        monkeypatch.setattr(ChannelModel, "path_loss_db", counting_loss)
        monkeypatch.setattr(LinkGeometry, "__post_init__", counting_build)
        monkeypatch.setattr(relay, "snr_anchor_db", counting_anchor)
        template = RelayGeometry(params["separation_m"],
                                 params["uav_altitude_m"], 1.0, 1.0)
        sweep(sweep_plan(params["strategies"], template, params["delays_s"],
                         params["speeds_mps"]),
              ChannelModel(params["carrier_frequency_hz"]),
              SnrReference(params["reference_snr_db"],
                           template.midpoint_slant),
              time_step=config.time_step)
        assert sum(samples) == 60_356
        assert len(samples) == 10  # blocks of at most 16,000 samples
        assert len(anchors) == len(scalars) == 1
        assert len(builds) == len(samples) + 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_plan(["static"], geom(1.0, 1.0), delays=[], speeds=[1.0])


class TestDominanceGrid:
    def test_mobile_dominates_static_and_ferry(self):
        # All-feasible 10x10 grid: ferry needs v*delta >= R.
        delays = [10.0 + 5.0 * i for i in range(10)]
        speeds = [100.0 + 10.0 * i for i in range(10)]
        for delta in delays:
            for v in speeds:
                g = geom(v, delta)
                ref = ref_for(g)
                mobile = simulate_cycle(RelayStrategy.MOBILE, g, CHANNEL,
                                        ref, time_step=0.05).end_to_end_se
                static = simulate_cycle(RelayStrategy.STATIC, g, CHANNEL,
                                        ref, time_step=0.05).end_to_end_se
                ferry = simulate_cycle(RelayStrategy.FERRY, g, CHANNEL,
                                       ref, time_step=0.05).end_to_end_se
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
                    RelayStrategy.MOBILE, g, CHANNEL, ref_for(g),
                    time_step=0.05).end_to_end_se
        for delta in delays:
            ses = [table[(delta, v)] for v in speeds]
            assert all(a <= b + 1e-9 for a, b in zip(ses, ses[1:]))
        for v in speeds:
            ses = [table[(delta, v)] for delta in delays]
            assert all(a <= b + 1e-9 for a, b in zip(ses, ses[1:]))


class TestBufferRequirement:
    def test_mobile_v100(self):
        req = run(RelayStrategy.MOBILE, 100.0).peak_occupancy
        assert req == pytest.approx(134.9, abs=0.5)
        unbounded = run(RelayStrategy.MOBILE, 100.0)
        assert req == unbounded.bits_received  # everything buffered at t=delta

    def test_static_peak(self):
        req = run(RelayStrategy.STATIC, 0.0).peak_occupancy
        assert req == pytest.approx(math.log2(11.0) * 20.0, abs=0.05)

    def test_half_capacity_strictly_reduces_se(self):
        req = run(RelayStrategy.MOBILE, 100.0).peak_occupancy
        unbounded = run(RelayStrategy.MOBILE, 100.0)
        clipped = run(RelayStrategy.MOBILE, 100.0, buffer_capacity=req / 2.0)
        assert clipped.end_to_end_se < unbounded.end_to_end_se
        assert clipped.peak_occupancy <= req / 2.0 + 1e-12

    def test_sufficient_capacity_reproduces_unbounded(self):
        req = run(RelayStrategy.MOBILE, 100.0).peak_occupancy
        unbounded = run(RelayStrategy.MOBILE, 100.0)
        exact = run(RelayStrategy.MOBILE, 100.0, buffer_capacity=req)
        assert exact.end_to_end_se == unbounded.end_to_end_se
