import copy
import math
import statistics
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavsim import DomainError, dissemination
from uavsim.dissemination import (D2dGraph, _WordStreams, compare_schemes,
                                  coverage_mask)
from uavsim.experiment import (PRESETS, ConfigError, _dissemination_scenario,
                               derive_seed, preset_config, validate_config)
from uavsim.mobility import _overflight_steps, overflight_x


def hover(slots, altitude=100.0):
    """UAV positions at the slot starts of a flight hovering over the
    origin."""
    return np.tile([0.0, 0.0, altitude], (slots, 1))


def flight(start, end, speed, slot_duration):
    """UAV positions at the slot starts of a straight flight: one slot per
    ``slot_duration`` over its duration in whole 0.1 s steps."""
    steps = _overflight_steps(math.dist(start, end), speed, 0.1)
    slots = max(1, round(steps * 0.1 / slot_duration))
    return overflight_x(start, end, speed, np.arange(slots) * slot_duration)


def line_positions(count, length):
    spacing = length / count
    return [((i + 0.5) * spacing, 0.0) for i in range(count)]


def holding(sets, width):
    """(nodes, width) packet matrix holding the given packet-id sets."""
    packets = np.zeros((len(sets), width), dtype=bool)
    for row, held in zip(packets, sets):
        row[sorted(held)] = True
    return packets


def as_sets(packets):
    return [set(np.flatnonzero(row).tolist()) for row in packets]


def broadcast(uav, positions, radius, erasure, rng):
    """Phase 1 from scratch; returns (transmissions, packet matrix)."""
    coverage = coverage_mask(uav, positions, radius)
    packets = np.zeros(coverage.shape[::-1], dtype=bool)
    return (dissemination.broadcast(coverage, packets[None], erasure, [rng]),
            packets)


def gossip(packets, graph, k, rng, round_cap=10_000):
    """Phase 2 of one seed on its (nodes, packets) matrix: its rounds used,
    success and stalled flags per component."""
    rounds, success, stalled = dissemination.exchange(
        packets[None], graph, k, [rng], round_cap)
    return rounds[0], success[0], stalled[0]


def baseline(uav, positions, k, radius, erasure, rng, pass_cap=1_000):
    """The baseline of one seed from scratch: its transmissions, success
    and packets missing per node."""
    coverage = coverage_mask(uav, positions, radius)
    packets = np.zeros((len(positions), k), dtype=bool)
    transmissions, success, missing = dissemination.baseline(
        coverage, packets[None], erasure, [rng], pass_cap)
    return transmissions[0], success[0], missing[0]


def components(graph):
    """The graph's components as sorted node lists, read from
    ``graph.labels``, which numbers them by smallest member."""
    return [np.flatnonzero(graph.labels == c).tolist()
            for c in range(graph.component_count)]


def stalled_components(graph, stalled):
    """One seed's stalled flags per component as the oracle's tuples of
    node indices, through ``graph.labels``."""
    return tuple(tuple(np.flatnonzero(graph.labels == c).tolist())
                 for c in np.flatnonzero(stalled).tolist())


def missing_per_node(missing):
    """One seed's nonzero missing counts as the oracle's dict, or None
    when there are none."""
    return {node: int(missing[node])
            for node in np.flatnonzero(missing).tolist()} or None


# ---------------------------------------------------------------------------
# Scalar reference: the per-slot, per-node loops over packet sets that the
# array code replaced.  The array path must reproduce them exactly, draw
# for draw.

@dataclass
class OracleNode:
    id: int
    position: tuple[float, float]
    received_packets: set[int] = field(default_factory=set)


def numpy_slant(uav_position, ground_position):
    # The slant distance as ``coverage_mask`` computes it, for one pair:
    # sqrt(dx * dx + dy * dy + z * z).  Products, sums and square roots
    # round the same in Python and numpy, so plain floats give the same
    # bits (``x ** 2`` in place of ``x * x`` would not).
    (ux, uy, uz), (nx, ny) = uav_position, ground_position
    dx, dy = ux - nx, uy - ny
    return math.sqrt(dx * dx + dy * dy + uz * uz)


def numpy_distance(a, b):
    # The ground distance as ``D2dGraph`` computes it, for one pair.
    dx, dy = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.hypot(dx, dy)


def oracle_in_range(uav_position, node, radius):
    return numpy_slant(uav_position, node.position) <= radius


def oracle_neighbors(nodes, d2d_range):
    neighbors = {n.id: set() for n in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if numpy_distance(a.position, b.position) <= d2d_range:
                neighbors[a.id].add(b.id)
                neighbors[b.id].add(a.id)
    return neighbors


def oracle_components(neighbors):
    seen = set()
    components = []
    for start in sorted(neighbors):
        if start in seen:
            continue
        stack = [start]
        component = []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.append(node)
            stack.extend(neighbors[node] - seen)
        components.append(sorted(component))
    return components


def oracle_phase1(uav, nodes, radius, erasure, rng):
    """Phase 1 over ``uav``, the UAV position at the start of each slot."""
    uav_positions = np.asarray(uav).tolist()
    for slot, uav_pos in enumerate(uav_positions):
        for node in nodes:
            if not oracle_in_range(uav_pos, node, radius):
                continue
            if rng.random() >= erasure:
                node.received_packets.add(slot)
    return len(uav_positions)


def oracle_phase2(nodes, neighbors, k, rng, round_cap=10_000):
    """Returns (rounds, success, stalled, union_sizes)."""
    by_id = {n.id: n for n in nodes}
    components = oracle_components(neighbors)
    union_sizes = []
    stalled = []
    for component in components:
        union = set().union(*(by_id[i].received_packets for i in component))
        union_sizes.append(len(union))
        if len(union) < k:
            stalled.append(tuple(component))

    def decoded(node):
        return len(node.received_packets) >= k

    def all_decoded():
        return all(decoded(n) for n in nodes)

    already_sent = {n.id: set() for n in nodes}
    rounds = 0
    while not all_decoded():
        if stalled:
            reachable = {i for c in components
                         if tuple(c) not in {tuple(s) for s in stalled}
                         for i in c}
            if all(decoded(by_id[i]) for i in reachable):
                break
        if rounds >= round_cap:
            return rounds, False, tuple(stalled), tuple(union_sizes)
        broadcasts = []
        for node in nodes:
            if not node.received_packets:
                continue
            fresh = sorted(node.received_packets - already_sent[node.id])
            pool = fresh if fresh else sorted(node.received_packets)
            packet = pool[rng.integers(len(pool))]
            already_sent[node.id].add(packet)
            broadcasts.append((node.id, packet))
        for sender, packet in broadcasts:
            for neighbor in neighbors[sender]:
                by_id[neighbor].received_packets.add(packet)
        rounds += 1
    return rounds, all_decoded(), tuple(stalled), tuple(union_sizes)


def oracle_baseline(uav, nodes, k, radius, erasure, rng, pass_cap=1_000):
    """Returns (transmissions, passes, success, missing_per_node)."""
    uav_positions = np.asarray(uav).tolist()
    pending = [n for n in nodes if len(n.received_packets) < k]
    transmissions = 0
    for pass_index in range(pass_cap):
        for uav_pos in uav_positions:
            packet = transmissions % k
            transmissions += 1
            for node in pending:
                if not oracle_in_range(uav_pos, node, radius):
                    continue
                if rng.random() >= erasure:
                    node.received_packets.add(packet)
            pending = [n for n in pending if len(n.received_packets) < k]
            if not pending:
                return transmissions, pass_index + 1, True, None
    missing = {n.id: k - len(n.received_packets) for n in pending}
    return transmissions, pass_cap, False, missing


def oracle_scenario(params):
    """The field and flight of ``experiment._dissemination_scenario``."""
    n = params["node_count"]
    length = params["field_length_m"]
    spacing = length / n
    nodes = [OracleNode(i, ((i + 0.5) * spacing, 0.0)) for i in range(n)]
    overshoot = params.get("overshoot_m", params["coverage_radius_m"])
    altitude, speed = params["uav_altitude_m"], params["uav_speed_mps"]
    start = (-overshoot, 0.0, altitude)
    end = (length + overshoot, 0.0, altitude)
    # The flight lasts whole 0.1 s steps; one slot per slot duration, each
    # starting where the UAV is then.
    flight_length = math.dist(start, end)
    steps = math.ceil(flight_length / (speed * 0.1) - 1e-12)
    slot = params["slot_duration_s"]
    uav = []
    for i in range(max(1, int(round(steps * 0.1 / slot)))):
        frac = min(speed * (i * slot) / flight_length, 1.0)
        uav.append(tuple(a + frac * (b - a) for a, b in zip(start, end)))
    return nodes, uav


def assert_exchange_matches(graph, k, outcome, oracle):
    """One seed's ``exchange`` outcome, (rounds, success, stalled flags),
    is ``oracle_phase2``'s: rounds, success and stalled components, and a
    component is stalled just where the oracle's packet union is short of
    ``k``."""
    rounds, success, stalled = outcome
    oracle_rounds, oracle_success, oracle_stalled, union_sizes = oracle
    assert (rounds, success, stalled_components(graph, stalled)) == (
        oracle_rounds, oracle_success, oracle_stalled)
    assert stalled.tolist() == [size < k for size in union_sizes]


def assert_baseline_matches(slots, pass_cap, outcome, oracle):
    """One seed's ``baseline`` outcome, (transmissions, success, missing
    per node), is ``oracle_baseline``'s; the oracle's passes are those the
    transmissions span over ``slots`` a pass, or the cap on a failure.  A
    zero cap leaves nodes missing nothing without success: the oracle's
    empty dict, which the nonzero counts give as None."""
    transmissions, success, missing = outcome
    oracle_transmissions, passes, oracle_success, oracle_missing = oracle
    assert (transmissions, success, missing_per_node(missing)) == (
        oracle_transmissions, oracle_success, oracle_missing or None)
    assert passes == ((transmissions - 1) // slots + 1 if success
                      else pass_cap)


def comparable(value):
    """``value`` with dicts and ndarrays made comparable with ``==``."""
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    return value


def peek(rng):
    """The generator's whole state, buffered uint32 included."""
    return comparable(rng.bit_generator.state)


# Preset parameter overrides, and the round cap passed to phase 2.
VARIANTS = {
    "dissem20": ({}, 10_000),
    "lossless": ({"erasure_probability": 0.0}, 10_000),
    "erasure_0.8": ({"erasure_probability": 0.8}, 10_000),
    "isolated": ({"d2d_range_m": 30.0}, 10_000),
    "37_nodes_r150": ({"node_count": 37, "coverage_radius_m": 150.0},
                      10_000),
    "k200": ({"source_packet_count": 200}, 10_000),
    # Enough (slot, node) cells that baseline segments shrink and regrow.
    "60_nodes_3km": ({"node_count": 60, "field_length_m": 3000.0},
                     10_000),
    "pass_cap_failure": ({"pass_cap": 1}, 10_000),
    "round_cap_0": ({}, 0),
}


class TestMatchesScalarReference:
    @pytest.mark.parametrize("case", sorted(VARIANTS))
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=6, deadline=None)
    def test_preset_variants(self, case, seed):
        overrides, round_cap = VARIANTS[case]
        params = {**PRESETS["dissem20"]["params"], **overrides}
        pass_cap = params.get("pass_cap", 1000)
        radius, erasure, k = (params[name] for name in (
            "coverage_radius_m", "erasure_probability",
            "source_packet_count"))
        coverage, graph = _dissemination_scenario(params)
        nodes, uav = oracle_scenario(params)

        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        packets = np.zeros(coverage.shape[::-1], dtype=bool)
        assert dissemination.broadcast(coverage, packets[None], erasure,
                                       [rng]) == \
            oracle_phase1(uav, nodes, radius, erasure, oracle_rng)
        assert as_sets(packets) == [n.received_packets for n in nodes]
        assert peek(rng) == peek(oracle_rng)

        neighbors = oracle_neighbors(nodes, params["d2d_range_m"])
        assert components(graph) == oracle_components(neighbors)
        rounds, success, stalled = dissemination.exchange(
            packets[None], graph, k, [rng], round_cap)
        assert_exchange_matches(
            graph, k, (rounds[0], success[0], stalled[0]),
            oracle_phase2(nodes, neighbors, k, oracle_rng, round_cap))
        assert as_sets(packets) == [n.received_packets for n in nodes]
        assert peek(rng) == peek(oracle_rng)

        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        base_nodes, _ = oracle_scenario(params)
        base_packets = np.zeros((len(base_nodes), k), dtype=bool)
        result = dissemination.baseline(coverage, base_packets[None], erasure,
                                        [rng], pass_cap)
        assert_baseline_matches(
            coverage.shape[0], pass_cap, [column[0] for column in result],
            oracle_baseline(uav, base_nodes, k, radius, erasure, oracle_rng,
                            pass_cap))
        assert as_sets(base_packets) == [n.received_packets
                                         for n in base_nodes]
        assert peek(rng) == peek(oracle_rng)

        # Integer and bool arrays over the seed axis, as callers sum them
        # and write them to CSV.
        transmissions, base_success, missing = result
        assert [column.dtype.kind for column in (
            rounds, success, stalled, transmissions, base_success,
            missing)] == ["i", "b", "b", "i", "b", "i"]
        assert stalled.shape == (1, graph.component_count)
        assert missing.shape == (1, len(base_nodes))
        if case == "isolated":
            # Every node is its own component, so it stalls unless phase 1
            # alone gave it K packets (about 1 seed in 60 has such a node).
            assert stalled_components(graph, stalled[0]) == tuple(
                (n.id,) for n in nodes if len(n.received_packets) < k)
            assert success[0] == (not stalled[0].any())
        if case == "pass_cap_failure":
            assert not base_success[0] and missing[0].any()
        if case == "round_cap_0":
            assert rounds[0] == 0

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_fields_with_held_packets(self, data, seed):
        # Small fields exercise what the preset does not: repeated packet
        # ids inside one baseline segment (K < slots per pass), K above the
        # slots per pass, nodes that start complete, and zero caps.
        draw_rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 9))
        positions = [tuple(p) for p in
                     np.round(draw_rng.uniform(0, 300, (n, 2)) / 25) * 25]
        k = data.draw(st.integers(1, 25))
        radius = data.draw(st.sampled_from([120.0, 200.0]))
        erasure = data.draw(st.sampled_from([0.0, 0.4, 0.9]))
        speed = data.draw(st.sampled_from([10.0, 25.0, 60.0]))
        uav = flight((-100.0, 50.0, 80.0), (400.0, 150.0, 80.0), speed,
                     data.draw(st.sampled_from([0.5, 1.0, 3.0])))
        d2d_range = data.draw(st.sampled_from([0.0, 25.0, 75.0, 200.0]))
        pass_cap = data.draw(st.integers(0, 4))
        round_cap = data.draw(st.sampled_from([0, 1, 3, 10_000]))

        # Phase 1, then gossip over whatever phase 1 delivered.
        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        nodes = [OracleNode(i, p) for i, p in enumerate(positions)]
        sent, packets = broadcast(uav, positions, radius, erasure, rng)
        assert sent == oracle_phase1(uav, nodes, radius, erasure, oracle_rng)
        neighbors = oracle_neighbors(nodes, d2d_range)
        graph = D2dGraph(positions, d2d_range)
        assert_exchange_matches(
            graph, k, gossip(packets, graph, k, rng, round_cap),
            oracle_phase2(nodes, neighbors, k, oracle_rng, round_cap))
        assert as_sets(packets) == [n.received_packets for n in nodes]
        assert peek(rng) == peek(oracle_rng)

        # Baseline from random packets already held.
        held = [set(draw_rng.choice(k, draw_rng.integers(0, k + 1),
                                    replace=False).tolist())
                for _ in range(n)]
        nodes = [OracleNode(i, p, set(h))
                 for i, (p, h) in enumerate(zip(positions, held))]
        packets = holding(held, k)
        coverage = coverage_mask(uav, positions, radius)
        result = dissemination.baseline(coverage, packets[None], erasure,
                                        [rng], pass_cap)
        assert_baseline_matches(
            coverage.shape[0], pass_cap, [column[0] for column in result],
            oracle_baseline(uav, nodes, k, radius, erasure, oracle_rng,
                            pass_cap))
        assert as_sets(packets) == [n.received_packets for n in nodes]
        assert peek(rng) == peek(oracle_rng)


def check_batch(coverage, graph, d2d_range, k, radius, erasure, uav,
                positions, seeds, round_cap, pass_cap, block):
    """``compare_schemes`` over ``seeds``, ``block`` seeds at a time: every
    seed's outcome and generators must be those of its scalar oracles,
    whose D2D links are the pairs within ``d2d_range``, the range
    ``graph`` was built with, and whose UAV covers ``radius``, the radius
    ``coverage`` was built with.  Returns the outcome columns."""
    slots, nodes = coverage.shape
    seed_cells = nodes * (slots + k + nodes)
    coded = [np.random.default_rng(s) for s in seeds]
    base = [np.random.default_rng(s) for s in seeds]
    with mock.patch.object(dissemination, "_BLOCK_CELLS",
                           block * seed_cells), \
            mock.patch.object(dissemination, "exchange",
                              wraps=dissemination.exchange) as exchange:
        result = compare_schemes(coverage, graph, k, erasure, coded, base,
                                 round_cap, pass_cap)
    assert exchange.call_count == -(-len(seeds) // block)
    assert {name: column.shape for name, column in result.items()} == {
        **dict.fromkeys(["coded_transmissions", "d2d_rounds",
                         "coded_success", "baseline_transmissions",
                         "baseline_success"], (len(seeds),)),
        "stalled": (len(seeds), graph.component_count),
        **dict.fromkeys(["missing", "packets_after_phase1",
                         "decoded_after_phase2"], (len(seeds), nodes))}
    for i, (seed, rng, base_rng) in enumerate(zip(seeds, coded, base)):
        oracle_rng = np.random.default_rng(seed)
        nodes = [OracleNode(j, p) for j, p in enumerate(positions)]
        assert result["coded_transmissions"][i] == oracle_phase1(
            uav, nodes, radius, erasure, oracle_rng)
        assert result["packets_after_phase1"][i].tolist() == [
            len(n.received_packets) for n in nodes]
        neighbors = oracle_neighbors(nodes, d2d_range)
        assert_exchange_matches(
            graph, k, (result["d2d_rounds"][i], result["coded_success"][i],
                       result["stalled"][i]),
            oracle_phase2(nodes, neighbors, k, oracle_rng, round_cap))
        assert result["decoded_after_phase2"][i].tolist() == [
            len(n.received_packets) >= k for n in nodes]
        assert peek(rng) == peek(oracle_rng)

        oracle_rng = np.random.default_rng(seed)
        nodes = [OracleNode(j, p) for j, p in enumerate(positions)]
        assert_baseline_matches(
            slots, pass_cap, (result["baseline_transmissions"][i],
                              result["baseline_success"][i],
                              result["missing"][i]),
            oracle_baseline(uav, nodes, k, radius, erasure, oracle_rng,
                            pass_cap))
        assert peek(base_rng) == peek(oracle_rng)
    return result


# Preset overrides, round cap and pass cap of a six-seed batch run in
# blocks of four seeds and two.
BATCHES = {
    # Five seeds that need no gossip round and one that needs 48, with 17
    # or 18 of the 18 D2D components stalled.
    "staggered": ({"node_count": 30, "d2d_range_m": 100 / 3,
                   "erasure_probability": 0.6}, 10_000, 1_000),
    "caps_0": ({"node_count": 30, "d2d_range_m": 100 / 3,
                "erasure_probability": 0.6}, 0, 0),
    "pass_cap_failure": ({}, 10_000, 1),
}


class TestBatchMatchesScalarReference:
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_preset_batches(self, batch):
        overrides, round_cap, pass_cap = BATCHES[batch]
        params = {**PRESETS["dissem20"]["params"], **overrides}
        coverage, graph = _dissemination_scenario(params)
        nodes, uav = oracle_scenario(params)
        result = check_batch(
            coverage, graph, params["d2d_range_m"],
            params["source_packet_count"], params["coverage_radius_m"],
            params["erasure_probability"], uav, [n.position for n in nodes],
            [derive_seed(0, i) for i in range(6)],
            round_cap, pass_cap, block=4)
        rounds, stalled = result["d2d_rounds"], result["stalled"]
        if batch == "staggered":
            assert set((rounds == 0).tolist()) == {True, False}
            assert stalled.any(axis=1).all()
        if batch == "caps_0":
            assert (rounds == 0).all()
            assert (result["baseline_transmissions"] == 0).all()
            assert not result["baseline_success"].any()
            assert (result["missing"] > 0).all()
        if batch == "pass_cap_failure":
            assert not result["baseline_success"].any()
            assert result["missing"].any(axis=1).all()

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, data, seed):
        # Small fields where seeds of one batch end at different rounds
        # and steps, split into blocks at any seed.
        draw_rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 8))
        positions = [tuple(p) for p in
                     np.round(draw_rng.uniform(0, 300, (n, 2)) / 25) * 25]
        k = data.draw(st.integers(1, 20))
        radius = data.draw(st.sampled_from([120.0, 200.0]))
        erasure = data.draw(st.sampled_from([0.0, 0.4, 0.9]))
        speed = data.draw(st.sampled_from([10.0, 25.0, 60.0]))
        uav = flight((-100.0, 50.0, 80.0), (400.0, 150.0, 80.0), speed,
                     data.draw(st.sampled_from([0.5, 1.0, 3.0])))
        d2d_range = data.draw(st.sampled_from([0.0, 25.0, 75.0, 200.0]))
        graph = D2dGraph(positions, d2d_range)
        seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=1,
                                   max_size=6))
        check_batch(coverage_mask(uav, positions, radius), graph, d2d_range,
                    k, radius, erasure, uav, positions, seeds,
                    data.draw(st.sampled_from([0, 1, 3, 10_000])),
                    data.draw(st.integers(0, 4)),
                    data.draw(st.integers(1, len(seeds))))


class TestPhase1Broadcast:
    def test_perfect_channel_hovering(self):
        positions = [(0.0, 0.0)]
        count, packets = broadcast(hover(10), positions, 200.0, 0.0,
                                   rng=np.random.default_rng(0))
        assert count == 10
        assert as_sets(packets)[0] == set(range(10))
        assert packets.sum(axis=1)[0] >= 10  # decodes a 10-packet file

    def test_near_total_erasure(self):
        totals = 0
        slots = 0
        for seed in range(20):
            count, packets = broadcast(hover(1000), [(0.0, 0.0)], 200.0,
                                       0.999, np.random.default_rng(seed))
            slots += count
            totals += int(packets.sum())
        assert totals / slots == pytest.approx(0.001, abs=5e-4)

    def test_out_of_range_receives_nothing(self):
        _, packets = broadcast(hover(10), [(500.0, 0.0)], 200.0, 0.0,
                               np.random.default_rng(0))
        assert as_sets(packets)[0] == set()

    def test_reproducible_with_same_seed(self):
        uav = flight((0.0, 0.0, 100.0), (1000.0, 0.0, 100.0), 20.0, 1.0)
        rng_nodes = np.random.default_rng(7)
        positions = [(rng_nodes.uniform(0, 1000), 0.0) for _ in range(20)]
        runs = []
        for _ in range(2):
            _, packets = broadcast(uav, positions, 300.0, 0.3,
                                   np.random.default_rng(7))
            runs.append([sorted(s) for s in as_sets(packets)])
        assert runs[0] == runs[1]

    def test_monotone_packet_counts(self):
        # Slots only ever add packets.
        coverage = coverage_mask(hover(50), [(0.0, 0.0), (50.0, 0.0)], 300.0)
        packets = holding([{3}, set()], coverage.shape[0])
        before = packets.sum(axis=1)
        dissemination.broadcast(coverage, packets[None], 0.5,
                                [np.random.default_rng(1)])
        after = packets.sum(axis=1)
        assert all(b >= a for a, b in zip(before, after))
        assert packets[0, 3]

    def test_radius_decided_by_numpy_slant(self):
        # Python's ``x ** 2`` and numpy's ``x * x`` differ in the last bit
        # for a few x.  There the numpy slant decides: at a radius equal to
        # it the node is covered, one ulp below it is not, and a radius
        # equal to the ``math`` slant is decided by the numpy one.
        altitude = 97.3
        rng = np.random.default_rng(0)
        ground = rng.uniform(-300, 300, (20000, 2))
        exact = [math.sqrt((0.0 - x) ** 2 + (0.0 - y) ** 2 + altitude ** 2)
                 for x, y in ground.tolist()]
        slant = [numpy_slant((0.0, 0.0, altitude), point)
                 for point in ground.tolist()]
        split = np.flatnonzero(np.array(slant) != exact)
        assert split.size
        uav = hover(1, altitude=altitude)
        for i in split[:20]:
            for radius in (slant[i], float(np.nextafter(slant[i], 0.0)),
                           exact[i]):
                mask = coverage_mask(uav, [ground[i]], radius)
                assert mask.tolist() == [[slant[i] <= radius]]

    def test_slot_duration_positive(self):
        # ``coverage_mask`` takes the UAV positions at the slot starts; the
        # experiment lays out the slots, and its validation rejects a slot
        # duration that is not > 0 before any mask is built.
        config = preset_config("dissem20")
        config.params["slot_duration_s"] = 0.0
        with pytest.raises(ConfigError, match="slot_duration_s must be > 0"):
            validate_config(config)


# Cliques where one round brings a node the same packet from several
# neighbours: (packet sets, K).
DUPLICATE_SENDS = {
    "shared_plus_private": ([{0, i} for i in range(1, 6)], 6),
    # Nodes 0-2 hold only packet 0 (a pool of one takes no draw), so in
    # round 1 nodes 3-5 each receive it from all three.
    "repeat_senders": ([{0}] * 3 + [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}], 10),
}


class TestPhase2Exchange:
    @pytest.mark.parametrize("case", sorted(DUPLICATE_SENDS))
    @pytest.mark.parametrize("round_cap", [1, 2, 10_000])
    def test_duplicate_sends_counted_once(self, case, round_cap):
        # A packet that arrives from several neighbours in one round counts
        # once towards decoding: rounds, success, holdings, decode flags
        # and generator states equal the scalar oracle's, for a batch of
        # seeds that, uncapped, finish in different rounds.
        sets, k = DUPLICATE_SENDS[case]
        positions = [(float(i), 0.0) for i in range(len(sets))]
        seeds = range(8)
        packets = np.stack([holding(sets, k) for _ in seeds])
        rngs = [np.random.default_rng(seed) for seed in seeds]
        graph = D2dGraph(positions, 10.0)
        results = dissemination.exchange(packets, graph, k, rngs, round_cap)
        for seed, rng, held, *result in zip(seeds, rngs, packets, *results):
            nodes = [OracleNode(i, p, set(s))
                     for i, (p, s) in enumerate(zip(positions, sets))]
            oracle_rng = np.random.default_rng(seed)
            assert_exchange_matches(graph, k, result, oracle_phase2(
                nodes, oracle_neighbors(nodes, 10.0), k, oracle_rng,
                round_cap))
            assert as_sets(held) == [n.received_packets for n in nodes]
            assert (held.sum(axis=1) >= k).tolist() == [
                len(n.received_packets) >= k for n in nodes]
            assert peek(rng) == peek(oracle_rng)

    def test_already_decoded_zero_rounds(self):
        packets = holding([set(range(10)), set(range(10))], 10)
        graph = D2dGraph([(0.0, 0.0), (1.0, 0.0)], d2d_range=10.0)
        rounds, success, _ = gossip(packets, graph, 10,
                                    np.random.default_rng(0))
        assert rounds == 0 and success

    def test_disjoint_halves_complete(self):
        # Two adjacent nodes holding disjoint halves of K=10 finish in
        # <= 10 rounds under every seed (each round moves one packet in
        # each direction and repeats are impossible until saturation).
        graph = D2dGraph([(0.0, 0.0), (1.0, 0.0)], d2d_range=10.0)
        for seed in range(100):
            packets = holding([set(range(5)), set(range(5, 10))], 10)
            rounds, success, _ = gossip(packets, graph, 10,
                                        np.random.default_rng(seed))
            assert success
            assert rounds <= 10

    def test_stalled_isolated_node(self):
        packets = holding([set(range(10)), {0, 1}], 10)
        graph = D2dGraph([(0.0, 0.0), (1e6, 0.0)], d2d_range=10.0)
        _, success, stalled = gossip(packets, graph, 10,
                                     np.random.default_rng(0))
        assert not success
        assert stalled_components(graph, stalled) == ((1,),)
        # Its packet union, short of K, is the two packets it held.
        assert packets[1].sum() == 2

    def test_round_cap_reported_as_failure(self):
        packets = holding([{0}, {1}], 2)
        graph = D2dGraph([(0.0, 0.0), (1.0, 0.0)], d2d_range=10.0)
        _, success, _ = gossip(packets, graph, 2, np.random.default_rng(0),
                               round_cap=0)
        assert not success

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_component_union_conserved(self, seed):
        rng = np.random.default_rng(seed)
        positions = []
        sets = []
        for _ in range(12):
            positions.append((rng.uniform(0, 500), rng.uniform(0, 500)))
            sets.append(set(rng.choice(30, size=rng.integers(0, 20),
                                       replace=False).tolist()))
        packets = holding(sets, 30)
        graph = D2dGraph(positions, d2d_range=150.0)
        unions_before = [frozenset(np.flatnonzero(packets[comp].any(axis=0)))
                         for comp in components(graph)]
        gossip(packets, graph, 30, np.random.default_rng(seed + 1),
               round_cap=50)
        unions_after = [frozenset(np.flatnonzero(packets[comp].any(axis=0)))
                        for comp in components(graph)]
        assert unions_before == unions_after

    def test_no_rounds_needed_when_all_covered(self):
        # Erasure-free phase 1 with >= K in-range slots decodes everyone.
        positions = line_positions(5, 100.0)
        _, packets = broadcast(hover(20), positions, 500.0, 0.0,
                               np.random.default_rng(0))
        graph = D2dGraph(positions, d2d_range=50.0)
        rounds, success, _ = gossip(packets, graph, 20,
                                    np.random.default_rng(0))
        assert success and rounds == 0


def lemire_oracle(next_uint32, highs):
    """``Generator.integers(0, highs)`` for highs in [1, 2**32), over the
    words ``next_uint32()`` returns: numpy's ``random_bounded_uint64`` and
    ``buffered_bounded_lemire_uint32``, transcribed line for line."""
    picks = []
    for high in highs:
        rng = high - 1  # numpy bounds the closed range [0, rng]
        if rng == 0:
            picks.append(0)
            continue
        rng_excl = rng + 1
        m = next_uint32() * rng_excl
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0xFFFFFFFF - rng) % rng_excl
            while leftover < threshold:
                m = next_uint32() * rng_excl
                leftover = m & 0xFFFFFFFF
        picks.append(m >> 32)
    return picks


def next_uint32_oracle(bit_generator):
    """A ``next_uint32`` reader of ``bit_generator``: the buffered high half
    first, else the low half of a fresh raw value, buffering its high."""
    def next_uint32():
        state = bit_generator.state
        if state["has_uint32"]:
            bit_generator.state = {**state, "has_uint32": 0}
            return state["uinteger"]
        raw = int(bit_generator.random_raw())
        bit_generator.state = {**bit_generator.state, "has_uint32": 1,
                               "uinteger": raw >> 32}
        return raw & 0xFFFFFFFF
    return next_uint32


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64]


class TestWordStreams:
    def test_rejected_word_takes_the_next(self):
        # high 3 rejects a word whose product's low half is below
        # 2**32 % 3 = 1: word 0 is rejected and the row's next word taken,
        # which shifts every later pick of that row and no other row's.
        streams = _WordStreams([np.random.default_rng(s) for s in (0, 1)], 0)
        words = [[0, 0, 2**32 - 1, 5, 0, 0], [0, 7, 0, 0, 2**32 - 2, 0]]
        streams.words = np.array(words, dtype=np.uint32)
        streams.cursor = np.array([1, 1])
        expected = [lemire_oracle(iter(words[0][1:]).__next__, [3, 1, 3]),
                    lemire_oracle(iter(words[1][1:]).__next__, [3, 3])]
        assert expected == [[2, 0, 0], [0, 2]]
        picks = streams.integers(np.array([0, 1]),
                                 np.array([[3, 1, 3], [3, 0, 3]]))
        assert picks.tolist() == [[2, 0, 0], [0, 0, 2]]
        assert streams.cursor.tolist() == [4, 5]

    def test_pool_of_one_takes_no_word(self):
        rng = np.random.default_rng(3)
        oracle = copy.deepcopy(rng)
        streams = _WordStreams([rng], 4)
        picks = streams.integers(np.array([0]), np.array([[1, 0, 1]]))
        assert picks.tolist() == [[0, 0, 0]]
        assert streams.cursor.tolist() == [1]
        streams.finish([0])
        assert peek(rng) == peek(oracle)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_buffered_word_taken_first(self, bit_generator):
        rng = np.random.Generator(bit_generator(5))
        rng.integers(0, 7)  # leaves the high half of a raw value buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        oracle = copy.deepcopy(rng)
        streams = _WordStreams([rng], 3)
        highs = [5, 2**31 + 1, 1, 9, 2**32 - 3, 6]
        picks = streams.integers(np.array([0]), np.array([highs]))
        assert picks.tolist() == [lemire_oracle(
            next_uint32_oracle(oracle.bit_generator), highs)]
        streams.finish([0])
        assert peek(rng) == peek(oracle)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_matches_generator_integers(self, bit_generator, seed):
        # Three generators, two entering with a buffered word, read over
        # rounds of random pools: none, pools of one, small pools and
        # pools near 2**32 that reject about one word in four.  A short
        # first draw makes the buffers grow; a generator finished early
        # must not be drawn from again.
        draw = np.random.default_rng(seed)
        rngs = [np.random.Generator(bit_generator(seed + i)) for i in range(3)]
        for rng in rngs[::2]:
            rng.integers(0, 7)
        oracles = copy.deepcopy(rngs)
        lemire = [next_uint32_oracle(copy.deepcopy(rng).bit_generator)
                  for rng in rngs]
        streams = _WordStreams(rngs, 3)
        live = [0, 1, 2]
        for round_index in range(6):
            rows = draw.permutation(live)[:draw.integers(1, len(live) + 1)]
            shape = (rows.size, draw.integers(1, 8))
            highs = np.choose(draw.integers(0, 4, shape), [
                0, 1, draw.integers(1, 300, shape),
                draw.integers(2**31, 2**32, shape)])
            picks = streams.integers(rows, highs)
            for row, row_highs, row_picks in zip(rows, highs, picks):
                pools = row_highs[row_highs > 0]
                expected = oracles[row].integers(0, pools).tolist()
                assert lemire_oracle(lemire[row], pools.tolist()) == expected
                assert row_picks[row_highs > 0].tolist() == expected
            if round_index == 2:
                streams.finish([1])
                live.remove(1)
        streams.finish(live)
        assert [peek(rng) for rng in rngs] == [peek(rng) for rng in oracles]

    def test_mt19937_rejected(self):
        rng = np.random.Generator(np.random.MT19937(0))
        packets = holding([{0}, {1}], 2)
        graph = D2dGraph([(0.0, 0.0), (1.0, 0.0)], d2d_range=10.0)
        with pytest.raises(ValueError, match="PCG64"):
            gossip(packets, graph, 2, rng)


class TestRunBaseline:
    def test_perfect_channel_single_pass(self):
        transmissions, success, missing = baseline(
            hover(20), line_positions(5, 100.0), 20, 500.0, 0.0,
            np.random.default_rng(0))
        assert success
        assert transmissions == 20  # one pass of 20 slots
        assert not missing.any()

    def test_geometric_retransmissions(self):
        # Single node, K=1, erasure 0.5: transmissions ~ Geometric(0.5),
        # mean 2.
        coverage = coverage_mask(hover(1), [(0.0, 0.0)], 200.0)
        counts = []
        for seed in range(10_000):
            transmissions, _, _ = dissemination.baseline(
                coverage, np.zeros((1, 1, 1), dtype=bool), 0.5,
                [np.random.default_rng(seed)], 1_000)
            counts.append(int(transmissions[0]))
        assert 1.9 <= statistics.mean(counts) <= 2.1

    @pytest.mark.parametrize("pass_cap, count", [(1_000, 2), (2, 3)])
    def test_step_lands_over_255_packets(self, pass_cap, count):
        # K = 300 from a hovering UAV over a perfect channel: each node in
        # range lands all 300 packets in the first step, more than a byte
        # holds; the third node, out of range, stays missing all 300.
        uav = hover(400)
        positions = [(0.0, 0.0), (100.0, 50.0), (1e6, 0.0)][:count]
        coverage = coverage_mask(uav, positions, 300.0)
        packets = np.zeros((count, 300), dtype=bool)
        rng, oracle_rng = (np.random.default_rng(7) for _ in range(2))
        result = dissemination.baseline(coverage, packets[None], 0.0, [rng],
                                        pass_cap)
        nodes = [OracleNode(i, p) for i, p in enumerate(positions)]
        expected = oracle_baseline(uav, nodes, 300, 300.0, 0.0, oracle_rng,
                                   pass_cap)
        assert_baseline_matches(400, pass_cap,
                                [column[0] for column in result], expected)
        assert expected[0] == (300 if count == 2 else 800)
        assert as_sets(packets) == [n.received_packets for n in nodes]
        assert peek(rng) == peek(oracle_rng)

    def test_pass_cap_failure_reports_missing(self):
        # The node is never in range.
        _, success, missing = baseline(hover(5), [(1e6, 0.0)], 3, 200.0, 0.0,
                                       np.random.default_rng(0), pass_cap=2)
        assert not success
        assert missing_per_node(missing) == {0: 3}


class TestClusterNodes:
    def test_single_cluster(self):
        graph = D2dGraph(line_positions(5, 40.0), d2d_range=10.0)
        assert components(graph) == [[0, 1, 2, 3, 4]]

    def test_two_separated_groups(self):
        positions = [(0.0, 0.0), (10.0, 0.0), (500.0, 0.0), (510.0, 0.0)]
        assert components(D2dGraph(positions, d2d_range=50.0)) \
            == [[0, 1], [2, 3]]

    def test_zero_range_singletons(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 1000, (100, 2))
        clusters = components(D2dGraph(positions, d2d_range=0.0))
        assert len(clusters) == 100
        assert all(len(c) == 1 for c in clusters)

    def test_graph_symmetric_no_self_loops(self):
        graph = D2dGraph(line_positions(10, 300.0), d2d_range=60.0)
        adjacency = graph.adjacency
        assert not adjacency.diagonal().any()
        assert (adjacency == adjacency.T).all()

    def test_range_decided_by_numpy_hypot(self):
        # np.hypot and math.dist differ in the last bit for a few pairs.
        # There np.hypot decides: at a range equal to it the pair is
        # linked, one ulp below it is not, and a range equal to the
        # ``math.dist`` is decided by np.hypot.
        rng = np.random.default_rng(0)
        pairs = rng.uniform(-500, 500, (5000, 2, 2))
        exact = [math.dist(a, b) for a, b in pairs.tolist()]
        distance = [numpy_distance(a, b) for a, b in pairs.tolist()]
        split = np.flatnonzero(np.array(distance) != exact)
        assert split.size
        for i in split[:20]:
            for limit in (float(distance[i]),
                          float(np.nextafter(distance[i], 0.0)), exact[i]):
                assert D2dGraph(pairs[i], limit).adjacency[0, 1] == \
                    (distance[i] <= limit)

    def test_preset_edges_at_exact_range(self):
        # dissem20 nodes i and i+2 are exactly 100 m apart, the D2D range.
        params = PRESETS["dissem20"]["params"]
        _, graph = _dissemination_scenario(params)
        n = params["node_count"]
        assert all(graph.adjacency[i, i + 2] for i in range(n - 2))
        assert not any(graph.adjacency[i, i + 3] for i in range(n - 3))

    @given(seed=st.integers(min_value=0, max_value=2**32),
           d2d_range=st.sampled_from([0.0, 1.0, 30.0, 100.0, 0.1 + 0.2]),
           count=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_is_numpy_hypot_rule(self, seed, d2d_range, count):
        # Half the points sit on a lattice whose spacing equals the range,
        # so many pairs lie exactly at it; the rest are arbitrary floats.
        rng = np.random.default_rng(seed)
        lattice = rng.integers(-3, 4, (count, 2)) * d2d_range
        scatter = rng.uniform(-3, 3, (count, 2)) * max(d2d_range, 1.0)
        positions = np.where(rng.random((count, 1)) < 0.5, lattice,
                             scatter).tolist()
        graph = D2dGraph(positions, d2d_range)
        expected = [[i != j and bool(numpy_distance(a, b) <= d2d_range)
                     for j, b in enumerate(positions)]
                    for i, a in enumerate(positions)]
        assert graph.adjacency.tolist() == expected
        neighbors = {i: {j for j, edge in enumerate(row) if edge}
                     for i, row in enumerate(expected)}
        assert components(graph) == oracle_components(neighbors)


def raises_value_error(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message


class TestModelValidation:
    """Each bound lives in one check, which every kernel that takes the
    value calls, and the config setup too."""

    def test_reception_model_bounds(self):
        for radius in (0.0, -1.0):
            raises_value_error(lambda: coverage_mask(hover(1), [(0.0, 0.0)],
                                                     radius),
                               "coverage_radius must be > 0")
        coverage = coverage_mask(hover(2), [(0.0, 0.0)], 10.0)
        for erasure in (1.0, -0.1):
            raises_value_error(lambda: dissemination.broadcast(
                coverage, np.zeros((1, 1, 2), dtype=bool), erasure,
                [np.random.default_rng(0)]),
                "erasure_probability must lie in [0, 1)")
            raises_value_error(lambda: dissemination.baseline(
                coverage, np.zeros((1, 1, 2), dtype=bool), erasure,
                [np.random.default_rng(0)], 10),
                "erasure_probability must lie in [0, 1)")

    def test_file_spec_positive(self):
        coverage = coverage_mask(hover(2), [(0.0, 0.0)], 10.0)
        graph = D2dGraph([(0.0, 0.0)], 10.0)
        # Each error names the parameter at fault: the config's
        # source_packet_count is exchange's k.
        for k in (0, -1):
            with pytest.raises(DomainError) as error:
                dissemination.exchange(np.zeros((1, 1, 2), dtype=bool),
                                       graph, k, [np.random.default_rng(0)],
                                       10)
            assert (str(error.value), error.value.parameters) == (
                "k must be > 0", ("k",))
        # The baseline takes K from the packet matrix.
        with pytest.raises(DomainError) as error:
            dissemination.baseline(
                coverage, np.zeros((1, 1, 0), dtype=bool), 0.3,
                [np.random.default_rng(0)], 10)
        assert (str(error.value), error.value.parameters) == (
            "packets must hold at least one source packet", ("packets",))

    def test_no_seeds(self):
        coverage = coverage_mask(hover(2), [(0.0, 0.0)], 10.0)
        raises_value_error(lambda: compare_schemes(
            coverage, D2dGraph([(0.0, 0.0)], 10.0), 2, 0.3, [], []),
            "compare_schemes needs at least one seed")

    def test_unpaired_generators_refused_before_their_block(self):
        # A block takes a baseline generator for each coded one before it
        # runs, so a short baseline iterable leaves every generator as it
        # was.
        coverage = coverage_mask(hover(2), [(0.0, 0.0)], 10.0)
        coded = [np.random.default_rng(seed) for seed in (0, 1)]
        base = [np.random.default_rng(0)]
        states = [rng.bit_generator.state for rng in coded + base]
        raises_value_error(lambda: compare_schemes(
            coverage, D2dGraph([(0.0, 0.0)], 10.0), 2, 0.3, coded, base),
            "coded_rngs and baseline_rngs need the same length")
        assert [rng.bit_generator.state for rng in coded + base] == states
