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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._csvfile import write_csv, write_csvs
from .channel import (ChannelModel, LinkGeometry, SnrReference,
                      snr_anchor_db, spectral_efficiency)
from .mobility import (FerryInfeasibleError, RelayGeometry, cycle_times,
                       ferry_x, mobile_relay_x)

_HOVER_EPS = 1e-6  # m, horizontal proximity that counts as hovering overhead


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
    positions, and the tuple traces are built from the arrays, on first
    access.
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
    def path_loss_trace(self) -> tuple[tuple[float, float, float], ...]:
        """(t, src dB, dst dB) per sample."""
        return tuple(zip(self.times.tolist(), self.path_loss_src.tolist(),
                         self.path_loss_dst.tolist()))

    @cached_property
    def se_trace(self) -> tuple[tuple[float, float], ...]:
        """(t, active-link SE) per sample."""
        return tuple(zip(self.times.tolist(), self.se.tolist()))

    @cached_property
    def buffer_trace(self) -> tuple[tuple[float, float], ...]:
        """(t, occupancy at the start of the step) per sample."""
        return tuple(zip(self.times.tolist(), self.occupancy.tolist()))


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
    if buffer_capacity < 0:
        raise ValueError("buffer_capacity must be >= 0 (or math.inf)")
    strategy = RelayStrategy(strategy)
    times = cycle_times(geom, time_step)
    xs = _cycle_x(strategy, geom, times)
    delta = geom.delay_budget

    # Times increase, so phase 1 (t < delta) is a prefix of the samples.
    n_phase1 = int(np.count_nonzero(times < delta - 1e-12))
    # The active link's horizontal gap: the source is on the ground at
    # x = 0, the destination at x = R.
    gap = xs.copy()
    gap[n_phase1:] -= geom.separation
    np.abs(gap, out=gap)
    # The ferry is silent in flight; the other relays talk at every sample.
    silent = gap > _HOVER_EPS if strategy == RelayStrategy.FERRY else None
    anchor = snr_anchor_db(channel, ref, geom.uav_altitude)
    loss = channel.path_loss_db(LinkGeometry(gap, geom.uav_altitude))
    # The result keeps the loss, so the SNR reuses the gaps' memory.
    snr_db = np.subtract(anchor, loss, out=gap)
    se = spectral_efficiency(snr_db)
    if silent is not None:
        se[silent] = 0.0

    # Closed-form buffer ledger over the left endpoints.  Phase 1 fills:
    # occupancy = min(cumsum(se*dt), capacity).  Phase 2 drains:
    # occupancy = max(B - se_1*dt - se_2*dt - ..., 0), summed left to
    # right as a step-by-step ledger would.
    offered = se[:-1] * time_step
    n_fill = min(n_phase1, len(offered))
    filled = np.minimum(np.cumsum(offered[:n_fill]), buffer_capacity)
    bits_received = float(filled[-1]) if n_fill else 0.0
    drain = offered[n_fill:]
    left = np.maximum(np.cumsum(np.append(bits_received, -drain))[1:], 0.0)
    drained = np.minimum(drain, np.append(bits_received, left[:-1]))
    bits_delivered = float(np.cumsum(drained)[-1]) if len(drain) else 0.0
    occupancy = np.concatenate(([0.0], filled, left))
    peak = max(0.0, float(occupancy.max()))

    return RelayRunResult(
        strategy=strategy,
        bits_received=bits_received,
        bits_delivered=bits_delivered,
        end_to_end_se=bits_delivered / (2.0 * delta),
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


def sweep_delay(strategies, geom_template: RelayGeometry,
                delays, speeds, channel: ChannelModel, ref: SnrReference,
                time_step: float = 0.01) -> list[SweepRow]:
    """End-to-end SE over the (delay, speed, strategy) grid, with
    unbounded buffers.

    Infeasible cells (ferry too slow) are recorded per-row, not fatal.
    Row order follows input index order: delay-major, then speed, then
    strategy.  A static relay ignores the speed, so its cycle is
    simulated once per delay.
    """
    if not delays or not speeds:
        raise ValueError("delays and speeds must be non-empty")
    rows = []
    for delta in delays:
        static_se = None
        for v in speeds:
            geom = RelayGeometry(separation=geom_template.separation,
                                 uav_altitude=geom_template.uav_altitude,
                                 v_max=v, delay_budget=delta)
            for strategy in strategies:
                strategy = RelayStrategy(strategy)
                if strategy == RelayStrategy.STATIC and static_se is not None:
                    rows.append(SweepRow(delta, v, strategy, static_se, True))
                    continue
                try:
                    result = simulate_cycle(strategy, geom, channel, ref,
                                            time_step=time_step)
                except FerryInfeasibleError as exc:
                    rows.append(SweepRow(delta, v, strategy, None, False,
                                         note=str(exc)))
                    continue
                rows.append(SweepRow(delta, v, strategy,
                                     result.end_to_end_se, True))
                if strategy == RelayStrategy.STATIC:
                    static_se = result.end_to_end_se
    return rows


def buffer_requirement(strategy: RelayStrategy, geom: RelayGeometry,
                       channel: ChannelModel, ref: SnrReference,
                       time_step: float = 0.01) -> float:
    """Minimum buffer capacity (bits/Hz) achieving the unbounded throughput.

    Equals the peak occupancy of an unbounded-buffer run.
    """
    result = simulate_cycle(strategy, geom, channel, ref,
                            buffer_capacity=math.inf, time_step=time_step)
    return result.peak_occupancy


def write_trace_csvs(traces) -> None:
    """One trace file (time_s, pl_src_db, pl_dst_db, se_bpshz,
    buffer_bits) per ``(result, path)`` of ``traces``, in one writer
    call, which formats a float the previous trace had only once.  Each
    file is written, and its result let go, before the next is drawn."""
    write_csvs(map(_trace_table, traces))


def _trace_table(trace):
    """The ``(path, header, columns)`` of a ``(result, path)``."""
    result, path = trace
    header = ["time_s", "pl_src_db", "pl_dst_db", "se_bpshz", "buffer_bits"]
    return path, header, [result.times, result.path_loss_src,
                          result.path_loss_dst, result.se, result.occupancy]


def write_sweep_csv(rows, path) -> None:
    """Sweep table: delta_s, v_mps, strategy, se_bpshz, feasible."""
    write_csv(path, ["delta_s", "v_mps", "strategy", "se_bpshz", "feasible"],
              zip(*((row.delay_budget, row.v_max, row.strategy.value,
                     row.end_to_end_se, int(row.feasible)) for row in rows)))
