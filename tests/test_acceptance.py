"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside the pytest verdicts.
"""

import math
import statistics
import time

import numpy as np
import pytest

from uavsim.channel import ChannelModel, SnrReference
from uavsim.coverage import (ExcessLoss, LosProbabilityModel, altitude_grid,
                             coverage_radii)
from uavsim.dissemination import broadcast, compare_schemes, exchange
from uavsim.experiment import (_dissemination_scenario, derive_seed,
                               preset_config, run, PRESETS)
from uavsim.mobility import RelayGeometry
from uavsim.relay import RelayStrategy, simulate_cycle, sweep, sweep_plan

CHANNEL = ChannelModel(carrier_frequency=5e9)


def geom(v_max, delta=20.0):
    return RelayGeometry(separation=1000.0, uav_altitude=100.0,
                         v_max=v_max, delay_budget=delta)


def ref_for(g):
    return SnrReference(10.0, g.midpoint_slant)


def report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_fig3_plateau_and_gap(tmp_path):
    start = time.perf_counter()
    config = preset_config("fig3")
    config.output_directory = str(tmp_path)
    run(config)
    elapsed = time.perf_counter() - start

    lines = (tmp_path / "trace_mobile_v100.csv").read_text().splitlines()[1:]
    rows = [(float(p[0]), float(p[1])) for p in
            (line.split(",") for line in lines)]
    plateau_level = min(pl for _, pl in rows)
    assert plateau_level == pytest.approx(86.42, abs=0.01)
    plateau_times = [t for t, pl in rows
                     if t < 20.0 and abs(pl - plateau_level) < 1e-9]
    duration = max(plateau_times) - min(plateau_times)
    assert duration == pytest.approx(10.0, abs=0.1)

    static_pl = float((tmp_path / "trace_static.csv").read_text()
                      .splitlines()[1].split(",")[1])
    gap = static_pl - plateau_level
    assert gap == pytest.approx(14.15, abs=0.05)
    assert elapsed < 1.0
    report(1, f"plateau {plateau_level:.2f} dB for {duration:.2f} s, "
              f"gap {gap:.3f} dB, runtime {elapsed:.2f} s")


def test_criterion_02_static_baseline():
    result = simulate_cycle(RelayStrategy.STATIC, geom(0.0), CHANNEL,
                            ref_for(geom(0.0)))
    assert result.end_to_end_se == pytest.approx(0.5 * math.log2(11.0),
                                                 abs=1e-4)
    report(2, f"static SE {result.end_to_end_se:.5f} bps/Hz "
              f"(oracle {0.5 * math.log2(11.0):.5f})")


def test_criterion_03_fig4_mobile_static_ratio():
    start = time.perf_counter()
    config = preset_config("fig4")
    plan = sweep_plan(config.params["strategies"], geom(1.0, 1.0),
                      config.params["delays_s"], config.params["speeds_mps"])
    rows = sweep(plan, CHANNEL, ref_for(geom(1.0)), time_step=0.01)
    elapsed = time.perf_counter() - start
    table = {(r.delay_budget, r.v_max, r.strategy): r.end_to_end_se
             for r in rows}
    ratios = {delta: (table[(delta, 100.0, RelayStrategy.MOBILE)]
                      / table[(delta, 100.0, RelayStrategy.STATIC)])
              for delta in config.params["delays_s"]}
    assert ratios[20.0] == pytest.approx(1.95, abs=0.03)
    for delta in (40.0, 80.0):
        assert ratios[delta] >= 2.0
    assert elapsed < 5.0
    report(3, f"mobile/static ratio {ratios[20.0]:.3f} at 20 s, "
              f"{ratios[40.0]:.3f} at 40 s, sweep runtime {elapsed:.2f} s")


def test_criterion_04_zero_speed_degeneracy():
    mobile = simulate_cycle(RelayStrategy.MOBILE, geom(0.0), CHANNEL,
                            ref_for(geom(0.0)))
    static = simulate_cycle(RelayStrategy.STATIC, geom(0.0), CHANNEL,
                            ref_for(geom(0.0)))
    for name in ("times", "path_loss_src", "path_loss_dst", "se",
                 "occupancy"):
        a, b = getattr(mobile, name), getattr(static, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                  b.tobytes())
    assert mobile.bits_received == static.bits_received
    assert mobile.bits_delivered == static.bits_delivered
    assert mobile.end_to_end_se == static.end_to_end_se
    report(4, "mobile v=0 bitwise identical to static on all arrays")


def test_criterion_05_dominance_grid():
    delays = [10.0 + 5.0 * i for i in range(10)]
    speeds = [100.0 + 10.0 * i for i in range(10)]
    worst_gap = math.inf
    for delta in delays:
        for v in speeds:
            g = geom(v, delta)
            ref = ref_for(g)
            se = {s: simulate_cycle(s, g, CHANNEL, ref,
                                    time_step=0.05).end_to_end_se
                  for s in RelayStrategy}
            assert se[RelayStrategy.MOBILE] >= se[RelayStrategy.STATIC] - 1e-9
            assert se[RelayStrategy.MOBILE] >= se[RelayStrategy.FERRY] - 1e-9
            # v > 0 everywhere on the grid, so flight legs exist and the
            # mobile-over-ferry gap must be strict.
            assert se[RelayStrategy.MOBILE] > se[RelayStrategy.FERRY]
            worst_gap = min(worst_gap, se[RelayStrategy.MOBILE]
                            - se[RelayStrategy.FERRY])
    report(5, f"mobile dominates on 10x10 grid; min mobile-ferry gap "
              f"{worst_gap:.4f} bps/Hz")


def test_criterion_06_buffer_tradeoff():
    g = geom(100.0)
    unbounded = simulate_cycle(RelayStrategy.MOBILE, g, CHANNEL, ref_for(g))
    requirement = unbounded.peak_occupancy
    halved = simulate_cycle(RelayStrategy.MOBILE, g, CHANNEL, ref_for(g),
                            buffer_capacity=requirement / 2.0)
    exact = simulate_cycle(RelayStrategy.MOBILE, g, CHANNEL, ref_for(g),
                           buffer_capacity=requirement)
    assert halved.end_to_end_se < unbounded.end_to_end_se
    assert exact.end_to_end_se == unbounded.end_to_end_se
    report(6, f"requirement {requirement:.1f} bits/Hz; half capacity drops "
              f"SE to {halved.end_to_end_se:.3f} from "
              f"{unbounded.end_to_end_se:.3f}")


def test_criterion_07_dissemination_benefit():
    start = time.perf_counter()
    params = PRESETS["dissem20"]["params"]
    coverage, graph, rx, file = _dissemination_scenario(params)
    seeds = [derive_seed(0, i) for i in range(50)]
    outcomes = compare_schemes(
        coverage, graph, file, rx,
        (np.random.default_rng(seed) for seed in seeds),
        (np.random.default_rng(seed) for seed in seeds))
    reductions = []
    for coded_tx, _, baseline, _, _ in outcomes:
        assert coded_tx <= baseline.uav_transmissions
        reductions.append(1.0 - coded_tx / baseline.uav_transmissions)
    elapsed = time.perf_counter() - start
    mean_reduction = statistics.mean(reductions)
    assert mean_reduction >= 0.30
    assert elapsed < 10.0
    report(7, f"coded <= baseline in 50/50 seeds; mean reduction "
              f"{mean_reduction:.1%}, runtime {elapsed:.2f} s")


def test_criterion_08_dissemination_conservation():
    # Packets are never removed, so any union change in any round would
    # persist to the end of the run; before/after equality per component
    # therefore certifies every round.
    params = PRESETS["dissem20"]["params"]
    coverage, graph, rx, file = _dissemination_scenario(params)
    for i in range(50):
        seed = derive_seed(3, i)
        rng = np.random.default_rng(seed)
        packets = np.zeros(coverage.shape[::-1], dtype=bool)
        broadcast(coverage, packets[None], rx, [rng])
        before = [frozenset(np.flatnonzero(packets[comp].any(axis=0)))
                  for comp in graph.connected_components()]
        exchange(packets[None], graph, file, [rng], 10_000)
        after = [frozenset(np.flatnonzero(packets[comp].any(axis=0)))
                 for comp in graph.connected_components()]
        assert before == after
    report(8, "per-component packet unions conserved across 50 seeded runs")


def test_criterion_09_coverage_interiority():
    los = LosProbabilityModel(9.61, 0.16)
    urban = ExcessLoss(1.0, 20.0)
    bounds = (10.0, 3000.0)
    altitudes = altitude_grid(bounds, 10.0)
    radii = coverage_radii(altitudes, 110.0, 2e9, los, urban)
    best = np.argmax(radii)  # the first maximum, as the CLI takes it
    h_opt, r_opt = float(altitudes[best]), float(radii[best])
    assert bounds[0] < h_opt < bounds[1]
    r_low, r_high = coverage_radii(list(bounds), 110.0, 2e9, los, urban)
    assert r_opt > r_low and r_opt > r_high

    flat = ExcessLoss(1.0, 1.0)
    flat_radii = coverage_radii(altitudes, 110.0, 2e9, los, flat)
    h_flat = float(altitudes[np.argmax(flat_radii)])
    assert h_flat == bounds[0]
    report(9, f"urban optimum {h_opt:.0f} m (radius {r_opt:.0f} m > "
              f"{r_low:.0f}/{r_high:.0f} m at bounds); equal-excess optimum "
              f"at lower bound")


def test_criterion_10_time_step_convergence():
    worst = 0.0
    for strategy, v in [(RelayStrategy.STATIC, 0.0),
                        (RelayStrategy.MOBILE, 30.0),
                        (RelayStrategy.MOBILE, 100.0),
                        (RelayStrategy.FERRY, 100.0)]:
        g = geom(v)
        coarse = simulate_cycle(strategy, g, CHANNEL, ref_for(g),
                                time_step=0.01).end_to_end_se
        fine = simulate_cycle(strategy, g, CHANNEL, ref_for(g),
                              time_step=0.005).end_to_end_se
        worst = max(worst, abs(fine - coarse) / coarse)
    assert worst < 1e-3
    report(10, f"halving 10 ms step moves SE by at most {worst:.2e}")


def test_criterion_11_reproducibility(tmp_path):
    bodies = []
    for sub in ("first", "second"):
        for preset in ("fig3", "dissem20"):
            config = preset_config(preset)
            if preset == "dissem20":
                config.params["n_seeds"] = 5
            config.master_seed = 42
            config.output_directory = str(tmp_path / sub / preset)
            manifest = run(config)
            bodies.append((sub, preset,
                           [(tmp_path / sub / preset / f).read_bytes()
                            for f in manifest.output_files]))
    by_run = {}
    for sub, preset, files in bodies:
        by_run.setdefault(preset, []).append(files)
    for preset, (a, b) in by_run.items():
        assert a == b
    report(11, "reruns with the same master seed are byte-identical")
