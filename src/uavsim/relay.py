"""Half-duplex decode-and-forward relaying cycle simulation.

Covers the three strategies compared in the relaying experiments:
static (fixed at the midpoint), mobile (sawtooth shuttle each phase),
and data ferrying (load-carry-and-deliver, communicating only while
hovering at the endpoints).  Phase 1 fills the on-board buffer from the
source link, phase 2 drains it to the destination; integration is
left-endpoint Riemann over the cycle's time step, under the free-space
channel.  Only one link
carries data at any sample, so a cycle evaluates that active link alone;
a result keeps that loss, and each per-link path-loss column evaluates
only its inactive half when first read.

One batch kernel simulates a sequence of cycles: ``simulate_cycle`` is
its one-cycle call, and ``sweep`` passes the distinct cycles of a
``sweep_plan`` through it at once.  The kernel takes the cycles in blocks
of bounded size, computes the SNR anchor once per altitude, and evaluates
a block's links once per run of equal active-link gaps (a static relay,
or one hovering overhead), repeating each run's loss and SE to its
samples.

The module only computes: ``experiment`` writes the traces and the sweep
table.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .channel import (ChannelModel, LinkGeometry, SnrReference,
                      snr_anchor_db, spectral_efficiency)
from .mobility import (FerryInfeasibleError, RelayGeometry,
                       _ferry_hover_time, cycle_times, ferry_x,
                       mobile_relay_x)

_HOVER_EPS = 1e-6  # m, horizontal proximity that counts as hovering overhead
# Samples per block of cycles whose links are evaluated together: no more
# than fig4's longest cycle (16,001 samples), which is a block of its own,
# so a block's arrays stay within that cycle's memory.
_BLOCK_SAMPLES = 16_000


class RelayStrategy(str, Enum):
    STATIC = "static"
    MOBILE = "mobile"
    FERRY = "ferry"


@dataclass(frozen=True)
class RelayRunResult:
    """Per-cycle bit ledger and traces; rates are per unit bandwidth.

    The per-sample arrays are kept as computed, the active link's path
    loss among them: the source's for the first ``phase1_samples``
    samples, the destination's after.  Each per-link path-loss column
    takes that half and evaluates its other half from the stored relay
    positions on first access.  ``occupancy`` is the buffer at the start
    of each step, so the minimum buffer achieving the unbounded
    throughput is ``peak_occupancy`` of an unbounded run.  ``se_trace``
    is the one tuple trace, which ``perfbench/tracer.py`` reads.
    """

    strategy: RelayStrategy
    bits_received: float   # bits/Hz accepted into the buffer in phase 1
    bits_delivered: float  # bits/Hz drained to the destination in phase 2
    end_to_end_se: float   # bits_delivered / (2*delta), bps/Hz
    peak_occupancy: float  # bits/Hz
    times: np.ndarray = dataclasses.field(repr=False, compare=False)
    relay_x: np.ndarray = dataclasses.field(repr=False, compare=False)
    se: np.ndarray = dataclasses.field(repr=False, compare=False)
    occupancy: np.ndarray = dataclasses.field(repr=False, compare=False)
    active_path_loss: np.ndarray = dataclasses.field(repr=False,
                                                     compare=False)
    phase1_samples: int = dataclasses.field(repr=False, compare=False)
    geometry: RelayGeometry = dataclasses.field(repr=False, compare=False)
    channel: ChannelModel = dataclasses.field(repr=False, compare=False)

    def _link_loss(self, gap: np.ndarray) -> np.ndarray:
        """Path loss over horizontal gaps ``|gap|`` at the UAV altitude."""
        return self.channel.path_loss_db(LinkGeometry(
            np.abs(gap), self.geometry.uav_altitude))

    @cached_property
    def path_loss_src(self) -> np.ndarray:
        """Relay-to-source path loss per sample, dB."""
        split = self.phase1_samples
        return np.concatenate([self.active_path_loss[:split],
                               self._link_loss(self.relay_x[split:])])

    @cached_property
    def path_loss_dst(self) -> np.ndarray:
        """Relay-to-destination path loss per sample, dB."""
        split = self.phase1_samples
        gap = self.relay_x[:split] - self.geometry.separation
        return np.concatenate([self._link_loss(gap),
                               self.active_path_loss[split:]])

    @cached_property
    def se_trace(self) -> tuple[tuple[float, float], ...]:
        """(t, active-link SE) per sample."""
        return tuple(zip(self.times.tolist(), self.se.tolist()))


def _cycle_x(strategy: RelayStrategy, geom: RelayGeometry,
             times: np.ndarray) -> np.ndarray:
    if strategy == RelayStrategy.STATIC:
        return mobile_relay_x(dataclasses.replace(geom, v_max=0.0), times)
    if strategy == RelayStrategy.MOBILE:
        return mobile_relay_x(geom, times)
    if strategy == RelayStrategy.FERRY:
        return ferry_x(geom, times)
    raise ValueError(f"unknown strategy {strategy!r}")


def simulate_cycle(strategy: RelayStrategy, geom: RelayGeometry,
                   channel: ChannelModel, ref: SnrReference,
                   buffer_capacity: float = math.inf,
                   time_step: float = 0.01) -> RelayRunResult:
    """Simulate one relaying cycle [0, 2*delta] and return the bit ledger.

    Phase 1 (t < delta): accumulate source-link spectral efficiency into
    the buffer, clipped at ``buffer_capacity``.  Phase 2: drain at the
    destination-link spectral efficiency, never below zero occupancy.
    The relay is half duplex, so each sample evaluates only the active
    link: the source's in phase 1, the destination's after.  The ferry
    communicates only while hovering at an endpoint.  Integration is
    left-endpoint: sample i carries its SE over [t_i, t_i + time_step),
    and the last sample only closes the traces.
    """
    result, = _simulate_cycles([(strategy, geom)], channel, ref,
                               buffer_capacity, time_step)
    return result


def _simulate_cycles(cycles, channel: ChannelModel, ref: SnrReference,
                     buffer_capacity: float = math.inf,
                     time_step: float = 0.01):
    """Yield ``simulate_cycle``'s result for each ``(strategy, geometry)``
    of ``cycles``, in order.

    Consecutive cycles at one UAV altitude form blocks of at most
    ``_BLOCK_SAMPLES`` samples (a longer cycle is a block of its own).
    The SNR anchor is computed once per altitude, and a block's links
    once per run of equal active-link gaps, each cycle starting a run.
    """
    if buffer_capacity < 0:
        raise ValueError("buffer_capacity must be >= 0 (or math.inf)")
    anchors = {}  # UAV altitude -> SNR anchor, dB
    block, samples = [], 0
    for strategy, geom in cycles:
        strategy = RelayStrategy(strategy)
        times = cycle_times(geom, time_step)
        altitude = geom.uav_altitude
        if block and (samples + len(times) > _BLOCK_SAMPLES
                      or altitude != block[0][1].uav_altitude):
            yield from _block_results(block, channel, anchors,
                                      buffer_capacity, time_step)
            block, samples = [], 0
        xs = _cycle_x(strategy, geom, times)
        if altitude not in anchors:
            anchors[altitude] = snr_anchor_db(channel, ref, altitude)
        block.append((strategy, geom, times, xs))
        samples += len(times)
    if block:
        yield from _block_results(block, channel, anchors, buffer_capacity,
                                  time_step)


def _block_results(block, channel, anchors, buffer_capacity, time_step):
    """The results of a block of ``(strategy, geometry, times, relay x)``
    cycles at one altitude."""
    ends = list(itertools.accumulate(len(times) for _, _, times, _ in block))
    starts = [0] + ends[:-1]
    # Times increase, so phase 1 (t < delta) is a prefix of each cycle.
    splits = [start + int(times.searchsorted(geom.delay_budget - 1e-12))
              for (_, geom, times, _), start in zip(block, starts)]
    loss, se = _active_links(block, starts, splits, ends, channel,
                             anchors[block[0][1].uav_altitude])
    for (strategy, geom, times, xs), start, split, end in zip(
            block, starts, splits, ends):
        yield _ledger(strategy, geom, channel, times, xs, split - start,
                      loss[start:end], se[start:end], buffer_capacity,
                      time_step)


def _active_links(block, starts, splits, ends, channel, anchor):
    """Path loss and SE of the active link at each sample of a block."""
    # The active link's horizontal gap: the source is on the ground at
    # x = 0, the destination at x = R.
    gap = np.concatenate([xs for _, _, _, xs in block])
    for (_, geom, _, _), split, end in zip(block, splits, ends):
        gap[split:end] -= geom.separation
    np.abs(gap, out=gap)
    # A static relay, or one hovering overhead, keeps its gap from sample
    # to sample.  Each run of equal gaps is one link, evaluated once; the
    # formulas are elementwise, so every sample gets the bits of its own
    # evaluation.
    head = np.empty(len(gap) + 1, dtype=bool)
    np.not_equal(gap[1:], gap[:-1], out=head[1:-1])
    head[starts] = head[-1] = True
    bounds = np.flatnonzero(head)  # run starts, then the block's end
    runs = bounds.searchsorted(ends).tolist()  # runs before each end
    gap = gap[bounds[:-1]]
    loss = channel.path_loss_db(LinkGeometry(gap, block[0][1].uav_altitude))
    se = spectral_efficiency(anchor - loss)
    for (strategy, _, _, _), first, last in zip(block, [0] + runs, runs):
        if strategy == RelayStrategy.FERRY:
            # The ferry is silent in flight; the others talk throughout.
            se[first:last][gap[first:last] > _HOVER_EPS] = 0.0
    lengths = bounds[1:] - bounds[:-1]
    return loss.repeat(lengths), se.repeat(lengths)


def _ledger(strategy, geom, channel, times, xs, n_phase1, loss, se,
            buffer_capacity, time_step) -> RelayRunResult:
    """The bit ledger of one cycle from its active-link SE per sample."""
    # Closed-form buffer ledger over the left endpoints.  Phase 1 fills:
    # occupancy = min(cumsum(se*dt), capacity).  Phase 2 drains from the
    # B bits received: occupancy = max(B - se_1*dt - se_2*dt - ..., 0),
    # summed left to right as a step-by-step ledger would.
    offered = se[:-1] * time_step
    n_fill = min(n_phase1, len(offered))
    occupancy = np.empty(len(se))
    occupancy[0] = 0.0
    filled = occupancy[1:n_fill + 1]
    np.minimum(offered[:n_fill].cumsum(out=filled), buffer_capacity,
               out=filled)
    bits_received = float(occupancy[n_fill])
    drain = offered[n_fill:]
    left = occupancy[n_fill:]  # B, then the occupancy after each drain
    np.negative(drain, out=left[1:])
    np.maximum(left.cumsum(out=left), 0.0, out=left)
    drained = np.minimum(drain, occupancy[n_fill:-1])
    bits_delivered = float(drained.cumsum()[-1]) if len(drain) else 0.0
    peak = max(0.0, float(occupancy.max()))

    return RelayRunResult(
        strategy=strategy,
        bits_received=bits_received,
        bits_delivered=bits_delivered,
        end_to_end_se=bits_delivered / (2.0 * geom.delay_budget),
        peak_occupancy=peak,
        times=times,
        relay_x=xs,
        se=se,
        occupancy=occupancy,
        active_path_loss=loss,
        phase1_samples=n_phase1,
        geometry=geom,
        channel=channel,
    )


@dataclass(frozen=True)
class SweepRow:
    delay_budget: float
    v_max: float
    strategy: RelayStrategy
    end_to_end_se: float | None
    feasible: bool
    note: str = ""


def sweep_plan(strategies, geom_template: RelayGeometry, delays, speeds):
    """The plan of a sweep over the (delay, speed, strategy) grid: the
    cells ``(delay, speed, strategy, cycle key or None, note)`` in row
    order, and the distinct cycles, cycle key -> ``(strategy, geometry)``
    in first-use order.

    Row order follows input index order: delay-major, then speed, then
    strategy.  A static relay ignores the speed, so its cycle is keyed
    once per delay.  An infeasible cell (ferry too slow) has no cycle and
    keeps the reason as its note.
    """
    if not delays or not speeds:
        raise ValueError("delays and speeds must be non-empty")
    strategies = [RelayStrategy(strategy) for strategy in strategies]
    cells = []
    cycles = {}
    for delta in delays:
        for v in speeds:
            geom = RelayGeometry(separation=geom_template.separation,
                                 uav_altitude=geom_template.uav_altitude,
                                 v_max=v, delay_budget=delta)
            for strategy in strategies:
                if strategy == RelayStrategy.FERRY:
                    try:
                        _ferry_hover_time(geom)
                    except FerryInfeasibleError as exc:
                        cells.append((delta, v, strategy, None, str(exc)))
                        continue
                key = ((strategy, delta) if strategy == RelayStrategy.STATIC
                       else (strategy, delta, v))
                cycles.setdefault(key, (strategy, geom))
                cells.append((delta, v, strategy, key, ""))
    return cells, cycles


def sweep(plan, channel: ChannelModel, ref: SnrReference,
          time_step: float) -> list[SweepRow]:
    """End-to-end SE of each cell of a ``sweep_plan``, with unbounded
    buffers, one row per cell; the plan's distinct cycles go through one
    batch."""
    cells, cycles = plan
    # Each result goes as soon as its SE is read, before the next is built.
    se = dict(zip(cycles, map(
        operator.attrgetter("end_to_end_se"),
        _simulate_cycles(cycles.values(), channel, ref, time_step=time_step))))
    return [SweepRow(delta, v, strategy, se.get(key), key is not None, note)
            for delta, v, strategy, key, note in cells]
