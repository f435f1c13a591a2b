"""D2D-enhanced two-phase file dissemination over a ground-node field.

Phase 1: the UAV broadcasts one distinct coded packet per slot along its
flight; nodes inside the coverage radius receive each packet
independently with probability 1 - erasure_probability.  The coding is
an ideal rateless abstraction: any K distinct coded packets decode the
K-packet file.  Phase 2: nodes redistribute packets over error-free
short-range D2D links in synchronous gossip rounds.  The baseline
repeats uncoded transmission passes until every node holds the whole
file individually.

Nodes are the rows of a ground-position array and are identified by row
index.  What the nodes hold is a (nodes, packets) bool matrix, updated in
place by each phase.  The geometry a run needs, the (slots, nodes)
coverage mask and the D2D graph, does not depend on the seed, so it is
built once and shared by every run over the same field and flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvfile import write_csv
from .mobility import Trajectory


@dataclass(frozen=True)
class FileSpec:
    """File of K source packets; decodes once K distinct coded packets arrive."""

    source_packet_count: int

    def __post_init__(self):
        if self.source_packet_count <= 0:
            raise ValueError("source_packet_count must be > 0")

    @property
    def decode_threshold(self) -> int:
        return self.source_packet_count

    def decoded(self, packets: np.ndarray) -> np.ndarray:
        """Per-node decode flags of a (nodes, packets) bool matrix."""
        return packets.sum(axis=1) >= self.decode_threshold


@dataclass(frozen=True)
class ReceptionModel:
    """Binary coverage disc plus i.i.d. packet erasure."""

    coverage_radius: float      # m, slant, > 0
    erasure_probability: float  # in [0, 1)

    def __post_init__(self):
        if self.coverage_radius <= 0:
            raise ValueError("coverage_radius must be > 0")
        if not 0.0 <= self.erasure_probability < 1.0:
            raise ValueError("erasure_probability must lie in [0, 1)")


def _within(distance: np.ndarray, limit: float, exact_distance) -> np.ndarray:
    """``distance <= limit`` elementwise.

    ``distance`` is a numpy estimate of the scalar rule
    ``exact_distance(*index)``; the two can differ by an ulp, so entries
    within rounding of the limit are decided by the scalar rule itself.
    """
    inside = distance <= limit
    for index in zip(*np.nonzero(np.abs(distance - limit) <= 1e-9 * limit)):
        inside[index] = exact_distance(*index) <= limit
    return inside


class D2dGraph:
    """Symmetric adjacency over node indices: edge iff
    ``math.dist(a, b) <= d2d_range`` for ground positions ``a != b``."""

    def __init__(self, positions, d2d_range: float):
        positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        points = positions.tolist()
        gap = positions[:, None, :] - positions[None, :, :]
        adjacency = _within(np.hypot(gap[..., 0], gap[..., 1]), d2d_range,
                            lambda i, j: math.dist(points[i], points[j]))
        np.fill_diagonal(adjacency, False)
        self.d2d_range = d2d_range
        self.adjacency = adjacency
        # Component index per node, components numbered by smallest member.
        self.labels = np.full(len(points), -1)
        self.component_count = 0
        for start in range(len(points)):
            if self.labels[start] >= 0:
                continue
            frontier = np.zeros(len(points), dtype=bool)
            frontier[start] = True
            while frontier.any():
                self.labels[frontier] = self.component_count
                frontier = adjacency[frontier].any(axis=0) & (self.labels < 0)
            self.component_count += 1

    def connected_components(self) -> list[list[int]]:
        """Components as sorted index lists, ordered by smallest member."""
        return [np.flatnonzero(self.labels == c).tolist()
                for c in range(self.component_count)]


def _slot_count(traj: Trajectory, slot_duration: float) -> int:
    return max(1, int(round(traj.duration / slot_duration)))


def coverage_mask(traj: Trajectory, positions, rx: ReceptionModel,
                  slot_duration: float) -> np.ndarray:
    """(slots, nodes) bool: the node lies inside the coverage disc at the
    start of the slot, one slot per ``slot_duration`` over the flight."""
    if slot_duration <= 0:
        raise ValueError("slot_duration must be > 0")
    times = (traj.states[0].time
             + np.arange(_slot_count(traj, slot_duration)) * slot_duration)
    uav = traj.position_at(times)
    ground = np.asarray(positions, dtype=float).reshape(-1, 2)
    dx = uav[:, None, 0] - ground[None, :, 0]
    dy = uav[:, None, 1] - ground[None, :, 1]
    slant = np.sqrt(dx * dx + dy * dy + (uav[:, 2] * uav[:, 2])[:, None])
    uav_points, ground_points = uav.tolist(), ground.tolist()

    def exact_slant(slot, node):
        (ux, uy, uz), (nx, ny) = uav_points[slot], ground_points[node]
        return math.sqrt((ux - nx) ** 2 + (uy - ny) ** 2 + uz ** 2)

    return _within(slant, rx.coverage_radius, exact_slant)


def phase1_broadcast(coverage: np.ndarray, packets: np.ndarray,
                     rx: ReceptionModel, rng: np.random.Generator) -> int:
    """Broadcast one distinct coded packet per slot: packet s in slot s.

    ``coverage`` is a (slots, nodes) mask from ``coverage_mask``.  A
    covered node receives the slot's packet unless it is erased, one
    uniform draw per covered (slot, node) in slot-major order, and the
    (nodes, slots) matrix ``packets`` gains it.  Returns the number of UAV
    transmissions (one per slot over the full flight).
    """
    received = np.zeros_like(coverage)
    received[coverage] = (rng.random(np.count_nonzero(coverage))
                          >= rx.erasure_probability)
    packets |= received.T
    return coverage.shape[0]


@dataclass(frozen=True)
class ExchangeResult:
    rounds_used: int
    success: bool
    stalled_components: tuple[tuple[int, ...], ...] = ()  # index tuples
    component_union_sizes: tuple[int, ...] = ()


def phase2_exchange(packets: np.ndarray, graph: D2dGraph, file: FileSpec,
                    rng: np.random.Generator,
                    round_cap: int = 10_000) -> ExchangeResult:
    """Synchronous gossip until every node decodes, a component stalls,
    or the round cap is hit.

    Each round, every node holding at least one packet broadcasts one
    uniformly random packet it has not broadcast before (falling back to
    a uniform draw over its whole set once everything has been sent).
    The no-repeat choice stays agnostic of what neighbors need but
    guarantees a component with a sufficient packet union finishes
    within K rounds.  ``packets`` is the (nodes, packets) matrix, updated
    in place; a round's picks are one ``integers`` call, in node order,
    each an index into the sender's pool in ascending packet order.
    """
    union = np.zeros((graph.component_count, packets.shape[1]), dtype=bool)
    holders, held = np.nonzero(packets)
    union[graph.labels[holders], held] = True
    union_sizes = union.sum(axis=1)
    short = union_sizes < file.decode_threshold
    stalled = tuple(tuple(component) for component, s
                    in zip(graph.connected_components(), short) if s)
    # Nodes of the components that can still finish.
    reachable = ~short[graph.labels]
    already_sent = np.zeros_like(packets)
    rounds = 0
    while True:
        decoded = file.decoded(packets)
        if decoded.all() or rounds >= round_cap or (
                stalled and decoded[reachable].all()):
            break
        # Snapshot first: all broadcasts in a round are simultaneous.
        fresh = packets & ~already_sent
        pool = np.where(fresh.any(axis=1, keepdims=True), fresh, packets)
        pool_sizes = pool.sum(axis=1)
        senders = np.flatnonzero(pool_sizes)
        picks = rng.integers(0, pool_sizes[senders])
        # Pools laid end to end in row-major order; a sender's pick indexes
        # into its own run.
        starts = np.cumsum(pool_sizes) - pool_sizes
        sent = np.flatnonzero(pool)[starts[senders] + picks] % pool.shape[1]
        already_sent[senders, sent] = True
        links, receivers = np.nonzero(graph.adjacency[senders])
        packets[receivers, sent[links]] = True
        rounds += 1
    return ExchangeResult(rounds, bool(decoded.all()), stalled,
                          tuple(union_sizes.tolist()))


@dataclass(frozen=True)
class BaselineResult:
    uav_transmissions: int
    passes_used: int
    success: bool
    missing_per_node: dict[int, int] | None = None  # populated on cap failure


_SEGMENT_CELLS = 4096  # (slot, node) cells a baseline segment covers at least


def run_baseline(coverage: np.ndarray, packets: np.ndarray, file: FileSpec,
                 rx: ReceptionModel, rng: np.random.Generator,
                 pass_cap: int = 1_000) -> BaselineResult:
    """Repeat uncoded passes until every node holds all K packets.

    Transmission g (counting from 0) sends packet g % K in slot g % S of
    the (S slots, nodes) ``coverage`` mask, continuing the packet cycle
    over repeated flights of the same trajectory.  ``packets`` is the
    (nodes, K) matrix, updated in place.  Returns total transmissions
    (count at the completing slot).

    The draws are those of a slot-by-slot loop: one per covered node
    still missing packets, slot-major.  The loop runs in segments that
    end at the first slot where a pending node completes, since the
    pending set is fixed in between.  A segment draws for whole packet
    cycles ahead, up to one pass, then rewinds the generator to the draws
    it used.
    """
    k = file.source_packet_count
    slots_per_pass, nodes = coverage.shape
    limit = pass_cap * slots_per_pass
    pass_cycles = -(-slots_per_pass // k)  # packet cycles covering a pass
    cycles = pass_cycles  # segment length, in packet cycles
    # The coverage of any segment's consecutive transmissions is a slice.
    slot_ids = np.arange(k * pass_cycles)
    tiled = coverage[np.arange(slots_per_pass + slot_ids.size)
                     % slots_per_pass]
    have = packets.T.copy()  # (K, nodes): row p is packet p
    counts = have.sum(axis=0)
    pending = counts < k
    transmissions = 0
    while transmissions < limit and pending.any():
        span = min(k * cycles, limit - transmissions)
        horizon = k * -(-span // k)
        start = transmissions % slots_per_pass
        covered = tiled[start:start + span] & pending
        state = rng.bit_generator.state
        received = np.zeros((horizon, nodes), dtype=bool)
        received[:span][covered] = (rng.random(int(covered.sum()))
                                    >= rx.erasure_probability)
        # Segment slot r*K + c sends packet (transmissions + c) % K, so row
        # c of every cycle carries the same packet; keep its first arrival.
        arrival = np.where(received, slot_ids[:horizon, None],
                           horizon).reshape(-1, k, nodes).min(axis=0)
        rows = (transmissions + np.arange(k)) % k
        arrival[have[rows]] = horizon
        # A node completes at its (K - count)-th earliest fresh arrival.
        need = np.maximum(k - counts, 1)
        completion = np.sort(arrival.T, axis=1)[np.arange(nodes), need - 1]
        first = int(completion.min())
        used = span
        cycles = min(2 * cycles, pass_cycles)
        if first < horizon:
            used = first + 1
            rng.bit_generator.state = state
            rng.random(int(covered[:used].sum()))
            # The next completion is likely about as far away as this one,
            # but below a few thousand cells numpy's per-call cost dominates.
            cycles = min(max(-(-used // k), _SEGMENT_CELLS // (k * nodes)),
                         pass_cycles)
        landed = arrival < used
        have[rows] |= landed
        counts += landed.sum(axis=0)
        pending &= counts < k
        transmissions += used
    packets[...] = have.T
    if pending.any() or not limit:
        missing = {int(n): k - int(counts[n]) for n in np.flatnonzero(pending)}
        return BaselineResult(transmissions, pass_cap, False, missing)
    # With nobody pending the first slot still goes out.
    transmissions = max(transmissions, 1)
    return BaselineResult(transmissions,
                          (transmissions - 1) // slots_per_pass + 1, True)


def cluster_nodes(positions, d2d_range: float) -> list[list[int]]:
    """Connected components of the D2D graph, as sorted node-index lists."""
    return D2dGraph(positions, d2d_range).connected_components()


def write_summary_csv(rows, path) -> None:
    """Per-run summary rows: (scenario_id, seed, scheme, uav_transmissions,
    d2d_rounds, success)."""
    write_csv(path, ["scenario_id", "seed", "scheme", "uav_transmissions",
                     "d2d_rounds", "success"], rows)


def write_node_detail_csv(rows, path) -> None:
    """Per-node rows: (node_id, packets_after_phase1, decoded_after_phase2)."""
    write_csv(path, ["node_id", "packets_after_phase1",
                     "decoded_after_phase2"], rows)
