"""Half-duplex decode-and-forward relaying cycle simulation.

Covers the three strategies of the relaying experiments, named in
``STRATEGIES``: static (fixed at the midpoint), mobile (sawtooth shuttle
each phase) and ferry (load-carry-and-deliver, communicating only while
hovering at the endpoints).  Phase 1 fills the on-board buffer from the
source link, phase 2 drains it to the destination, by left-endpoint
Riemann sums.  Only the active link, from the UAV over its horizontal gap
to a ground endpoint, is evaluated per sample, in free space.

``simulate_cycle`` is the one-cycle call of a batch kernel, and ``sweep``
passes the distinct cycles of a ``sweep_plan`` through it.  The kernel
shares one sample grid per delay, flies each relay leg by leg, and
evaluates each cycle's links in place on that cycle's own arrays, once
per run of equal gaps along a constant leg.  ``experiment`` writes the
traces and sweep table.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from . import DomainError, require
from ._numpy import np
from .channel import (_free_space_loss, free_space_path_loss, snr_anchor_db,
                      spectral_efficiency)
from .mobility import (RelayGeometry, _ferry_hover_time, _flight_x,
                       _sawtooth, _shuttle, cycle_times)

STRATEGIES = ("static", "mobile", "ferry")
_HOVER_EPS = 1e-6  # m, horizontal proximity that counts as hovering overhead


@dataclass(frozen=True)
class RelayRunResult:
    """Per-cycle bit ledger and traces; rates are per unit bandwidth.

    The per-sample arrays are kept as computed; ``times`` is the read-only
    grid of every cycle at its delay.  ``active_path_loss`` is the source
    link's for the first ``phase1_samples`` samples, the destination's
    after; each per-link column evaluates its other half on first access.
    ``occupancy`` is the buffer at the start of each step, so the minimum
    buffer achieving the unbounded throughput is ``peak_occupancy`` of an
    unbounded run.  ``perfbench/tracer.py`` reads ``se_trace``.
    """

    strategy: str          # one of STRATEGIES
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
    carrier_frequency: float = dataclasses.field(repr=False, compare=False)

    def _link_loss(self, gap: np.ndarray) -> np.ndarray:
        """Path loss over horizontal gaps ``|gap|`` at the UAV altitude."""
        return free_space_path_loss(np.abs(gap), self.geometry.uav_altitude,
                                    self.carrier_frequency)

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


def _strategy(name, parameter: str) -> str:
    """``name`` if in ``STRATEGIES``, else DomainError naming ``parameter``."""
    text = repr(name).replace("{", "{{").replace("}", "}}")
    require(isinstance(name, str) and name in STRATEGIES,
            f"{{{parameter}}}: {text} is not static, mobile or ferry")
    return name


def simulate_cycle(strategy: str, geom: RelayGeometry,
                   carrier_frequency: float, reference_snr_db: float,
                   reference_distance: float,
                   buffer_capacity: float = math.inf,
                   time_step: float = 0.01) -> RelayRunResult:
    """Simulate one relaying cycle [0, 2*delta] and return the bit ledger.

    A link's SNR is ``channel.snr_anchor_db`` of the carrier, the
    reference SNR and distance, and the UAV altitude, minus its path loss.

    Phase 1 (t < delta): accumulate source-link spectral efficiency into
    the buffer, clipped at ``buffer_capacity``.  Phase 2: drain at the
    destination-link spectral efficiency, never below zero occupancy.
    The relay is half duplex: the source link is active in phase 1, the
    destination's after, and the ferry talks only while hovering at an
    endpoint.  Sample i carries its SE over [t_i, t_i + time_step), and
    the last sample only closes the traces.
    """
    result, = _simulate_cycles([(strategy, geom)], carrier_frequency,
                               reference_snr_db, reference_distance,
                               buffer_capacity, time_step)
    return result


def _simulate_cycles(cycles, carrier_frequency: float,
                     reference_snr_db: float, reference_distance: float,
                     buffer_capacity: float = math.inf,
                     time_step: float = 0.01):
    """Yield ``simulate_cycle``'s result for each ``(strategy, geometry)``
    of ``cycles``, in order, each cycle's links evaluated on its own
    arrays.  The cycles at one delay share one read-only sample grid, and
    the SNR anchor is computed once per altitude."""
    require(buffer_capacity >= 0,
            "{buffer_capacity} must be >= 0 (or math.inf)")
    anchors, grids = {}, {}  # by altitude, by delay budget
    for strategy, geom in cycles:
        strategy, delta = _strategy(strategy, "strategy"), geom.delay_budget
        if delta not in grids:
            times = cycle_times(geom, time_step)
            times.flags.writeable = False
            # Times increase, so phase 1 (t < delta) is a prefix.
            grids[delta] = times, int(times.searchsorted(delta - 1e-12))
        (times, n_phase1), altitude = grids[delta], geom.uav_altitude
        if altitude not in anchors:
            anchors[altitude] = snr_anchor_db(
                carrier_frequency, reference_snr_db, reference_distance,
                altitude)
        legs, mirror = (_shuttle(geom) if strategy == "ferry" else
                        _sawtooth(dataclasses.replace(geom, v_max=0.0)
                                  if strategy == "static" else geom))
        xs = _flight_x(times, legs, mirror)
        # The active link's horizontal gap: the source is on the ground at
        # x = 0, the destination at x = R.
        gap = xs.copy()
        gap[n_phase1:] -= geom.separation
        np.abs(gap, out=gap)
        # Only a constant leg (parked or hovering) can repeat the gap; there
        # each run of equal gaps is one link: the formulas are elementwise,
        # so each sample gets the same bits.
        repeats = not all(callable(x) for _, x in legs)
        if repeats:
            head = np.ones(len(gap) + 1, dtype=bool)
            np.not_equal(gap[1:], gap[:-1], out=head[1:-1])
            bounds = np.flatnonzero(head)  # run starts, then the cycle's end
            gap = gap[bounds[:-1]]
        # The gap is an abs, and the altitude and the frequency are checked.
        loss = np.hypot(gap, altitude)
        se = spectral_efficiency(
            anchors[altitude]
            - _free_space_loss(loss, carrier_frequency, out=loss))
        if strategy == "ferry":  # silent in flight
            se[gap > _HOVER_EPS] = 0.0
        if repeats:
            lengths = np.diff(bounds)
            loss, se = loss.repeat(lengths), se.repeat(lengths)
        yield _ledger(strategy, geom, times, n_phase1, xs, carrier_frequency,
                      loss, se, buffer_capacity, time_step)


def _ledger(strategy, geom, times, n_phase1, xs, frequency, loss, se,
            buffer_capacity, time_step):
    """The bit ledger of one cycle from its active link's loss and SE."""
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
        strategy, bits_received, bits_delivered,
        bits_delivered / (2.0 * geom.delay_budget), peak, times, xs, se,
        occupancy, loss, n_phase1, geom, frequency)


def sweep_plan(strategies, geom_template: RelayGeometry, delays, speeds):
    """The plan of a sweep over the (delay, speed, strategy) grid: the
    cells ``(delay, speed, strategy, cycle key or None, note)`` in row
    order (delay-major, then speed, then strategy), and the distinct
    cycles, cycle key -> ``(strategy, geometry)``, in first-use order.
    A static relay ignores the speed, so its cycle is keyed once per
    delay.  An infeasible cell (ferry too slow) has no cycle and keeps
    the reason as its note.
    """
    require(len(delays) and len(speeds),
            "{delays} and {speeds} must be non-empty")
    strategies = [_strategy(name, "strategies") for name in strategies]
    cells, cycles = [], {}
    for delta in delays:
        for v in speeds:
            geom = RelayGeometry(geom_template.separation,
                                 geom_template.uav_altitude, v, delta)
            for strategy in strategies:
                if strategy == "ferry":
                    try:
                        _ferry_hover_time(geom)
                    except DomainError as exc:
                        cells.append((delta, v, strategy, None, str(exc)))
                        continue
                key = ((strategy, delta) if strategy == "static"
                       else (strategy, delta, v))
                cycles.setdefault(key, (strategy, geom))
                cells.append((delta, v, strategy, key, ""))
    return cells, cycles


def sweep(plan, carrier_frequency: float, reference_snr_db: float,
          reference_distance: float, time_step: float) -> list[list]:
    """End-to-end SE of each cell of a ``sweep_plan``, with unbounded
    buffers, its distinct cycles through one kernel call, which shares
    their grids and anchors: five columns in row order, the delay budget,
    speed, strategy name, end-to-end SE (``None`` if infeasible) and a
    feasible flag (1 or 0)."""
    cells, cycles = plan
    # Each result goes as soon as its SE is read, before the next is built.
    se = dict(zip(cycles, map(
        operator.attrgetter("end_to_end_se"),
        _simulate_cycles(cycles.values(), carrier_frequency,
                         reference_snr_db, reference_distance,
                         time_step=time_step))))
    return [[cell[0] for cell in cells], [cell[1] for cell in cells],
            [cell[2] for cell in cells],
            [se.get(cell[3]) for cell in cells],
            [int(cell[3] is not None) for cell in cells]]
