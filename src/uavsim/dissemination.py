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

Seeds are independent, so each phase runs on a batch of them at once,
over a leading seed axis: (seeds, nodes, packets) matrices, one generator
per seed, and per round or baseline step one set of array operations for
all seeds still running.  Gossip holds packets eight to a byte and counts
them with ``np.bitwise_count`` (numpy 2.0).  Each seed makes exactly the
draws a one-seed run makes, in its own generator, and leaves the
generator where that run leaves it.  A gossip round's picks are
``Generator.integers(0, pool_sizes)``, reproduced from the generator's
raw stream, so gossip takes a PCG64, PCG64DXSM, Philox or SFC64
generator.  The batch kernels run one phase each and take the numbers
they use: ``coverage_mask(uav, positions, coverage_radius)``,
``broadcast(coverage, packets, erasure_probability, rngs)``,
``exchange(packets, graph, k, rngs, round_cap)`` and ``baseline(coverage,
packets, erasure_probability, rngs, pass_cap)``, which takes K from the
packet matrix; a one-seed run passes ``packets[None]`` and ``[rng]``.
Each returns per-seed arrays: ``exchange`` the rounds used, success and
(seeds, components) stalled flags, ``baseline`` the transmissions,
success and (seeds, nodes) packets still missing.  ``compare_schemes``
runs every seed of a config through them, in blocks of seeds that bound
the memory a batch holds, and returns one dict of per-seed arrays.  The
module only computes: ``experiment`` writes the summary and node tables.
"""

from __future__ import annotations

import itertools

from . import require
from ._numpy import np


def _check_coverage_radius(coverage_radius: float) -> None:
    require(coverage_radius > 0, "{coverage_radius} must be > 0")


def _check_erasure_probability(erasure_probability: float) -> None:
    require(0.0 <= erasure_probability < 1.0,
            "{erasure_probability} must lie in [0, 1)")


def _check_packet_count(k: int) -> None:
    require(k > 0, "{k} must be > 0")


class D2dGraph:
    """Symmetric adjacency over node indices: edge iff ``np.hypot(*(a -
    b)) <= d2d_range`` (m, >= 0) for finite ground positions ``a != b``."""

    def __init__(self, positions, d2d_range: float):
        require(d2d_range >= 0, "{d2d_range} must be >= 0")
        positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        require(np.isfinite(positions).all(), "{positions} must be finite")
        with np.errstate(over="ignore"):  # an overflowing gap is inf
            gap = positions[:, None, :] - positions[None, :, :]
            adjacency = np.hypot(gap[..., 0], gap[..., 1]) <= d2d_range
        np.fill_diagonal(adjacency, False)
        self.adjacency = adjacency
        # Component index per node, components numbered by smallest member.
        self.labels = np.full(len(positions), -1)
        self.component_count = 0
        for start in range(len(positions)):
            if self.labels[start] >= 0:
                continue
            frontier = np.zeros(len(positions), dtype=bool)
            frontier[start] = True
            while frontier.any():
                self.labels[frontier] = self.component_count
                frontier = adjacency[frontier].any(axis=0) & (self.labels < 0)
            self.component_count += 1


def coverage_mask(uav: np.ndarray, positions,
                  coverage_radius: float) -> np.ndarray:
    """(slots, nodes) bool: the node's slant distance from the UAV at the
    start of the slot, ``sqrt(dx*dx + dy*dy + z*z)``, is at most
    ``coverage_radius`` (m, > 0); ``uav`` holds the (slots, 3) UAV
    positions at the slot starts, all finite, as the ground positions are."""
    _check_coverage_radius(coverage_radius)
    uav = np.asarray(uav, dtype=float)
    ground = np.asarray(positions, dtype=float).reshape(-1, 2)
    require(np.isfinite(uav).all() and np.isfinite(ground).all(),
            "{uav} and {positions} must be finite")
    # An overflow is an infinite slant, which only an infinite radius covers.
    with np.errstate(over="ignore"):
        dx = uav[:, None, 0] - ground[None, :, 0]
        dy = uav[:, None, 1] - ground[None, :, 1]
        slant = np.sqrt(dx * dx + dy * dy + (uav[:, 2] * uav[:, 2])[:, None])
    return slant <= coverage_radius


def broadcast(coverage: np.ndarray, packets: np.ndarray,
              erasure_probability: float, rngs) -> int:
    """Phase 1 for a batch of seeds: broadcast one distinct coded packet
    per slot, packet s in slot s.

    ``coverage`` is a (slots, nodes) mask from ``coverage_mask``,
    ``packets`` the (seeds, nodes, slots) matrix and ``rngs`` one
    generator per seed.  A covered node receives the slot's packet unless
    it is erased with ``erasure_probability`` (in [0, 1)), one uniform
    draw per covered (slot, node) in slot-major order, each seed drawing
    once from its own generator, and ``packets`` gains it.  Returns the
    number of UAV transmissions (one per slot over the full flight).
    """
    _check_erasure_probability(erasure_probability)
    received = np.zeros((len(rngs),) + coverage.shape, dtype=bool)
    cells = np.count_nonzero(coverage)
    received[:, coverage] = [rng.random(cells) >= erasure_probability
                             for rng in rngs]
    packets |= received.transpose(0, 2, 1)
    return coverage.shape[0]


# Row b: the set bits of byte value b, lowest first, then zeros.
_NTH_BIT = np.array([sorted([b & 1 << i for i in range(8)], key=bool,
                            reverse=True) for b in range(256)], dtype=np.uint8)


class _WordStreams:
    """The ``next_uint32`` words of a batch of generators, drawn in bulk.

    Row r's column 0 holds the word its generator had buffered
    (``uinteger``, taken first if ``has_uint32``), and columns 1 + 2i and
    2 + 2i the halves of its i-th raw value, low first as ``next_uint32``
    takes them; ``cursor`` is each row's next unused column.  ``finish``
    leaves a generator where its ``integers`` calls would have.
    """

    def __init__(self, rngs, words: int):
        self.rngs = rngs
        self.states = [rng.bit_generator.state for rng in rngs]
        require(all("has_uint32" in state for state in self.states),
                "gossip needs a PCG64, PCG64DXSM, Philox or SFC64 bit "
                "generator", "rngs")
        self.words = np.array([state["uinteger"] for state in self.states],
                              dtype=np.uint32)[:, None]
        self.cursor = np.array([1 - state["has_uint32"]
                                for state in self.states], dtype=np.int64)
        self.live = np.ones(len(rngs), dtype=bool)
        self._grow(words)

    def _grow(self, words: int) -> None:
        """At least ``words`` more words for every live row."""
        raws = -(-words // 2)
        more = np.zeros((len(self.rngs), 2 * raws), dtype=np.uint32)
        for row in np.flatnonzero(self.live):
            more[row] = self.rngs[row].bit_generator.random_raw(raws).astype(
                "<u8", copy=False).view("<u4")
        self.words = np.concatenate([self.words, more], axis=1)

    def integers(self, rows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``rngs[rows[r]].integers(0, sizes)`` over the positive sizes in
        row r of ``highs``, in their places (0 elsewhere), by numpy's rule
        for sizes below 2**32: ``m = word * size`` picks ``m >> 32``,
        unless the low half of ``m`` is below ``2**32 % size`` and the
        pick takes the next word; a size of 1 takes no word."""
        draws = highs > 1
        taken = draws.cumsum(axis=1)
        at = self.cursor[rows, None] + taken - draws  # each pick's word
        self.cursor[rows] += taken[:, -1]
        highs = highs.astype(np.uint64)
        while True:
            while self.cursor.max() >= self.words.shape[1]:
                self._grow(self.words.shape[1])
            m = self.words[rows[:, None], at] * highs
            low = m & 0xFFFFFFFF
            rejected = low < highs  # numpy's cheap bound on the test
            if rejected.any():
                rejected[rejected] = low[rejected] < 2**32 % highs[rejected]
            if not rejected.any():
                return (m >> 32).astype(np.int64)
            # Rare (odds size / 2**32 a pick): a row's first rejected pick
            # takes the next word, and the row's later picks move along.
            at += rejected.cumsum(axis=1) > 0
            self.cursor[rows] += rejected.any(axis=1)

    def finish(self, rows) -> None:
        """Rewind the generators of ``rows`` to just after the words their
        picks took, and draw no more from them."""
        for row in rows:
            used = int(self.cursor[row])
            bit_generator = self.rngs[row].bit_generator
            bit_generator.state = {
                **self.states[row], "has_uint32": 1 - used % 2,
                "uinteger": int(self.words[row, used - used % 2])}
            bit_generator.random_raw(used // 2)
            self.live[row] = False


def exchange(packets: np.ndarray, graph: D2dGraph, k: int, rngs,
             round_cap: int):
    """Phase 2 for a batch of seeds: synchronous gossip until every node
    decodes (holds ``k`` packets), the rest are in stalled components, or
    the round cap is hit.  Returns per seed the rounds used, whether
    every node decoded, and a (seeds, components) bool array: the
    components, numbered as ``graph.labels`` numbers them, whose packet
    union after phase 1 is short of ``k``, so that they never decode.

    Each round, every node holding at least one packet broadcasts one
    uniformly random packet it has not broadcast before (falling back to
    a uniform draw over its whole set once everything has been sent).
    The no-repeat choice stays agnostic of what neighbors need but
    guarantees a component with a sufficient packet union finishes
    within K rounds.  ``packets`` is the (seeds, nodes, packets) matrix,
    updated in place, and ``rngs`` holds one generator per seed, each a
    PCG64, PCG64DXSM, Philox or SFC64 generator.  A seed's round picks
    are ``rng.integers(0, pool_sizes)`` over its senders in node order,
    each an index into the sender's pool in ascending packet order.

    A round is one set of array operations over the seeds still
    gossiping: the picks are reproduced from the generators' raw streams,
    each node ORs in its neighbours' packets through a padded neighbour
    table, and its packet count grows by the bits that are new to it."""
    _check_packet_count(k)
    seeds, nodes, width = packets.shape
    # What the nodes hold, eight packets to a byte.
    held = np.packbits(packets, axis=2, bitorder="little")
    order = np.argsort(graph.labels, kind="stable")
    firsts = np.searchsorted(graph.labels[order],
                             np.arange(graph.component_count))
    stalled = np.bitwise_count(np.bitwise_or.reduceat(
        held[:, order], firsts, axis=1)).sum(axis=2, dtype=np.int64) < k
    # Nodes of stalled components never decode; a seed is done once the
    # others have.
    settled = stalled[:, graph.labels]
    # Row v lists v's neighbours, padded with v: a node holds what it sent.
    degrees = graph.adjacency.sum(axis=1)
    places = np.arange(max(1, degrees.max(initial=0)))
    neighbours = np.where(places < degrees[:, None], np.argsort(
        ~graph.adjacency, axis=1, kind="stable")[:, places],
        np.arange(nodes)[:, None])
    size_type = np.min_scalar_type(-1 - width)  # holds a pool's size
    counts = np.bitwise_count(held).sum(axis=2, dtype=size_type)
    # Per node: packets not yet broadcast, and how many it has broadcast.
    unsent, sent_counts = held.copy(), np.zeros_like(counts)
    rounds_used = np.zeros(seeds, dtype=int)
    success = np.zeros(seeds, dtype=bool)
    # The seeds still gossiping; each is written back to ``packets`` when
    # it finishes.
    live = np.arange(seeds)
    # A component with the file decodes within K rounds, each taking at
    # most a word per node.
    streams = _WordStreams(rngs, min(round_cap, k) * nodes)
    rounds = 0
    while True:
        decoded = counts >= k
        done = (decoded | settled).all(axis=1) | (rounds >= round_cap)
        if done.any():
            finished = live[done]
            streams.finish(finished.tolist())
            packets[finished] = np.unpackbits(held[done], axis=2, count=width,
                                              bitorder="little")
            rounds_used[finished] = rounds
            success[finished] = decoded[done].all(axis=1)
            live, held, unsent, counts, sent_counts, settled = (
                rows[~done] for rows in (live, held, unsent, counts,
                                         sent_counts, settled))
            if not live.size:
                break
        # Snapshot first: all broadcasts in a round are simultaneous.  A
        # node sends from its unsent packets, or from all it holds once
        # every one has been sent.
        spent = sent_counts == counts
        sizes = np.where(spent, counts, counts - sent_counts)
        pool = unsent.copy()
        pool[spent] = held[spent]
        byte_sizes = np.bitwise_count(pool).reshape(-1)
        ends = byte_sizes.cumsum(dtype=np.min_scalar_type(-8 * pool.size))
        senders = np.flatnonzero(sizes)  # live row * nodes + node
        picks = streams.integers(live, sizes).reshape(-1)[senders]
        # A pick indexes the sender's pool in ascending packet order: find
        # the byte that holds it in the flat pool, then the bit.
        first = senders * held.shape[2]
        target = (ends[first] - byte_sizes[first] + picks).astype(ends.dtype)
        at = np.searchsorted(ends, target, side="right")
        bit = _NTH_BIT[pool.reshape(-1)[at],
                       target - ends[at] + byte_sizes[at]]
        unsent.reshape(-1)[at] &= ~bit
        sent_counts += ~spent
        sent = np.zeros_like(held)
        sent.reshape(-1)[at] = bit
        incoming = sent[:, neighbours[:, 0]]
        for column in neighbours.T[1:]:
            incoming |= sent[:, column]
        incoming &= ~held
        held |= incoming
        unsent |= incoming
        counts += np.bitwise_count(incoming).sum(axis=2, dtype=size_type)
        rounds += 1
    return rounds_used, success, stalled


# (seed, slot, node) cells a baseline step covers at least, up to a pass per
# seed: below a few thousand, numpy's per-call cost dominates.
_STEP_CELLS = 4096


def baseline(coverage: np.ndarray, packets: np.ndarray,
             erasure_probability: float, rngs, pass_cap: int):
    """Repeat uncoded passes until every node holds all K packets, for a
    batch: ``packets`` is (seeds, nodes, K), updated in place, and
    ``rngs`` holds one generator per seed.  Returns per seed the UAV
    transmissions, whether every node completed within the cap, and a
    (seeds, nodes) count of the packets each node still lacks.

    Transmission g (counting from 0) sends packet g % K in slot g % S of
    the (S slots, nodes) ``coverage`` mask, continuing the packet cycle
    over repeated flights of the same trajectory, for at most
    ``pass_cap`` passes.  A seed's transmissions count up to its
    completing slot, and its draws are those of a slot-by-slot loop: one
    per covered node still missing packets, slot-major, each erased with
    ``erasure_probability``.  Passes used are ``(transmissions - 1) // S +
    1`` for a seed that completes, else ``pass_cap``.

    The seeds still running step in lockstep over windows of whole packet
    cycles; each ends its step at its first node completion, since its
    pending set is fixed until then.  A node completes with the last
    arrival among the packets it misses, which also settles whether it
    is still pending, so no packets are counted.  Draws are only compared
    with the erasure probability, so each seed keeps the draws a step did
    not use as hits, the start of its next step's draws; at the end the
    generator is rewound to the last draw used.
    """
    _check_erasure_probability(erasure_probability)
    k = packets.shape[2]
    require(k > 0, "{packets} must hold at least one source packet")
    slots_per_pass, nodes = coverage.shape
    limit = pass_cap * slots_per_pass
    pass_cycles = -(-slots_per_pass // k)  # packet cycles covering a pass
    # The coverage of any window's consecutive transmissions is a slice.
    tiled = coverage[np.arange(slots_per_pass + k * pass_cycles)
                     % slots_per_pass]
    have = packets.transpose(0, 2, 1).copy()  # (seeds, K, nodes)
    have_rows = have.reshape(-1, nodes)  # row seed * K + packet
    pending = have.sum(axis=1) < k
    sent = np.zeros(len(rngs), dtype=np.int64)
    ahead = [np.zeros(0, dtype=bool)] * len(rngs)
    drawn = [0] * len(rngs)
    marks = [[] for _ in rngs]  # (draws before, generator state) per draw
    live = np.flatnonzero(pending.any(axis=1)) if limit else sent[:0]
    while live.size:
        cycles = min(max(-(-_STEP_CELLS // (live.size * k * nodes)), 1),
                     pass_cycles)
        window = k * cycles
        base = sent[live]
        span = np.minimum(window, limit - base)
        slot_ids = np.arange(window, dtype=np.min_scalar_type(window))
        covered = (np.take(tiled, base[:, None] % slots_per_pass + slot_ids,
                           axis=0) & pending[live, None, :])
        if (span < window).any():
            covered[slot_ids >= span[:, None]] = False
        per_slot = np.einsum("swn->sw", covered.view(np.uint8),
                             dtype=np.min_scalar_type(nodes)).cumsum(axis=1)
        hits = []
        for seed, needed in zip(live.tolist(), per_slot[:, -1].tolist()):
            short = needed - ahead[seed].size
            if short > 0:
                # Marks before the one that holds the first unused draw are
                # spent.
                while (len(marks[seed]) > 1 and marks[seed][1][0]
                       <= drawn[seed] - ahead[seed].size):
                    del marks[seed][0]
                rng = rngs[seed]
                marks[seed].append((drawn[seed], rng.bit_generator.state))
                # Draw ahead four times the need: each refill saves a state.
                more = max(short, 4 * needed)
                ahead[seed] = np.concatenate(
                    [ahead[seed], rng.random(more) >= erasure_probability])
                drawn[seed] += more
            hits.append(ahead[seed][:needed])
        received = np.zeros_like(covered)
        received[covered] = np.concatenate(hits)
        # Row c of every cycle sends packet (sent + c) % K; keep each
        # packet's first arrival.
        arrival = window - received * (window - slot_ids)[:, None]
        if cycles > 1:
            arrival = arrival.reshape(live.size, cycles, k, nodes).min(axis=1)
        rows = (live[:, None] * k + (base[:, None] + slot_ids[:k]) % k)
        held = np.take(have_rows, rows, axis=0)
        missing = ~held
        # A pending node completes once the last of its K - count missing
        # packets arrives.  Halving beats numpy's max over a short axis 1.
        latest = arrival * missing
        while latest.shape[1] > 1:
            half = latest.shape[1] // 2
            latest = np.maximum(latest[:, :-half], latest[:, half:])
        completion = latest[:, 0]
        completion[~pending[live]] = window
        first = completion.min(axis=1).astype(np.int64)
        used = np.where(first < window, first + 1, span)
        cut = used.astype(arrival.dtype)[:, None]  # comparisons stay narrow
        have_rows[rows] = held | ((arrival < cut[..., None]) & missing)
        pending[live] &= completion >= cut
        for seed, taken in zip(live.tolist(),
                               per_slot[np.arange(live.size), used - 1]):
            ahead[seed] = ahead[seed][taken:]
        sent[live] += used
        live = live[pending[live].any(axis=1) & (sent[live] < limit)]
    for rng, unused, total, seed_marks in zip(rngs, ahead, drawn, marks):
        if unused.size:
            offset, state = next(mark for mark in reversed(seed_marks)
                                 if mark[0] <= total - unused.size)
            rng.bit_generator.state = state
            rng.random(total - unused.size - offset)
    packets[...] = have.transpose(0, 2, 1)
    success = ~pending.any(axis=1) & (limit > 0)
    # With nobody pending the first slot still goes out.
    sent[success] = np.maximum(sent[success], 1)
    return sent, success, k - have.sum(axis=1)


# Cells of one block of seeds in ``compare_schemes``: per seed, nodes x
# (slots + K + nodes), which bounds its packet matrices, a baseline step's
# window and a gossip round's D2D links.
_BLOCK_CELLS = 1 << 18


def compare_schemes(coverage: np.ndarray, graph: D2dGraph, k: int,
                    erasure_probability: float, coded_rngs, baseline_rngs,
                    round_cap: int = 10_000, pass_cap: int = 1_000) -> dict:
    """Coded broadcast plus D2D gossip against the uncoded baseline of a
    ``k``-packet file, one seed per pair of generators from the two
    iterables, all seeds in one batched pass.

    Takes the generators as it runs them, in blocks of at most
    ``_BLOCK_CELLS`` cells.  Returns what ``broadcast``, ``exchange`` and
    ``baseline`` give each seed run alone, as arrays over a leading seed
    axis, by name:

    - ``coded_transmissions``, ``d2d_rounds``, ``coded_success``: the
      coded scheme's UAV transmissions, gossip rounds and success;
    - ``stalled``: (seeds, components) bool, ``exchange``'s;
    - ``baseline_transmissions``, ``baseline_success``;
    - ``missing``: (seeds, nodes), the packets each node lacks after the
      baseline;
    - ``packets_after_phase1``, ``decoded_after_phase2``: (seeds, nodes).
    """
    slots, nodes = coverage.shape
    block = max(1, _BLOCK_CELLS // (nodes * (slots + k + nodes)))
    coded_rngs, baseline_rngs = iter(coded_rngs), iter(baseline_rngs)
    blocks = []
    while rngs := list(itertools.islice(coded_rngs, block)):
        packets = np.zeros((len(rngs), nodes, slots), dtype=bool)
        coded_tx = broadcast(coverage, packets, erasure_probability, rngs)
        after_phase1 = np.count_nonzero(packets, axis=2)
        rounds, coded_success, stalled = exchange(packets, graph, k, rngs,
                                                  round_cap)
        baseline_tx, baseline_success, missing = baseline(
            coverage, np.zeros((len(rngs), nodes, k), dtype=bool),
            erasure_probability,
            list(itertools.islice(baseline_rngs, len(rngs))), pass_cap)
        blocks.append({
            "coded_transmissions": np.full(len(rngs), coded_tx),
            "d2d_rounds": rounds, "coded_success": coded_success,
            "stalled": stalled, "baseline_transmissions": baseline_tx,
            "baseline_success": baseline_success, "missing": missing,
            "packets_after_phase1": after_phase1,
            "decoded_after_phase2": packets.sum(axis=2) >= k})
    require(blocks, "compare_schemes needs at least one seed", "coded_rngs")
    return {name: np.concatenate([part[name] for part in blocks])
            for name in blocks[0]}
