"""Experiment orchestration: config files, presets, seeding, CSV output.

A config is a JSON document selecting one scenario kind plus its
parameter block.  Runs are deterministic: per-run seeds derive from the
master seed and run index via SHA-256, and CSV bodies are byte-identical
across reruns of the same config.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (ChannelModel, LinkGeometry, SnrReference,
                      doppler_shift, free_space_path_loss, snr_at,
                      spectral_efficiency)
from .coverage import ExcessLoss, LosProbabilityModel, coverage_radius
from .dissemination import (D2dGraph, FileSpec, ReceptionModel,
                            coverage_mask, phase1_broadcast, phase2_exchange,
                            run_baseline, write_node_detail_csv,
                            write_summary_csv)
from .mobility import RelayGeometry, overflight_trajectory
from .relay import (RelayStrategy, simulate_cycle, sweep_delay,
                    write_sweep_csv, write_trace_csv)

SCENARIO_KINDS = ("relay_trace", "relay_sweep", "disseminate", "coverage",
                  "channel_probe")

# Protected CNPC spectrum; configs using a carrier inside these bands get
# a validation warning (data links should not squat on control spectrum).
CNPC_L_BAND_HZ = (960e6, 977e6)
CNPC_C_BAND_HZ = (5030e6, 5091e6)


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass
class ExperimentConfig:
    scenario: str
    params: dict
    master_seed: int = 0
    output_directory: str = "out"
    time_step: float = 0.01
    warnings: list[str] = field(default_factory=list)

    def canonical_json(self) -> str:
        return json.dumps({
            "scenario": self.scenario,
            "params": self.params,
            "master_seed": self.master_seed,
            "time_step": self.time_step,
        }, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass
class RunManifest:
    config_digest: str
    tool_version: str
    scenario: str
    output_directory: str
    run_seeds: list[int]
    output_files: list[str]
    series: dict = field(default_factory=dict)  # plot metadata per file

    def save(self, path: Path) -> None:
        path.write_text(json.dumps({
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "scenario": self.scenario,
            "output_directory": self.output_directory,
            "run_seeds": self.run_seeds,
            "output_files": self.output_files,
            "series": self.series,
        }, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        return cls(config_digest=data["config_digest"],
                   tool_version=data["tool_version"],
                   scenario=data["scenario"],
                   output_directory=data["output_directory"],
                   run_seeds=data["run_seeds"],
                   output_files=data["output_files"],
                   series=data.get("series", {}))


def derive_seed(master_seed: int, run_index: int) -> int:
    """Stable per-run seed: SHA-256 over (master_seed, run_index)."""
    digest = hashlib.sha256(f"{master_seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Presets

PRESETS: dict[str, dict] = {
    # Mobile-vs-static path-loss traces: R=1 km, H=100 m, 5 GHz, delta=20 s.
    "fig3": {
        "scenario": "relay_trace",
        "params": {
            "separation_m": 1000.0,
            "uav_altitude_m": 100.0,
            "carrier_frequency_hz": 5e9,
            "delay_budget_s": 20.0,
            "speeds_mps": [10.0, 30.0, 100.0],
            "reference_snr_db": 10.0,
        },
    },
    # Spectral efficiency vs delay budget, static vs mobile.
    "fig4": {
        "scenario": "relay_sweep",
        "params": {
            "separation_m": 1000.0,
            "uav_altitude_m": 100.0,
            "carrier_frequency_hz": 5e9,
            "delays_s": [5.0, 10.0, 20.0, 40.0, 80.0],
            "speeds_mps": [10.0, 30.0, 100.0],
            "strategies": ["static", "mobile"],
            "reference_snr_db": 10.0,
        },
    },
    # Standard 20-node dissemination comparison, coded+D2D vs baseline.
    "dissem20": {
        "scenario": "disseminate",
        "params": {
            "node_count": 20,
            "field_length_m": 1000.0,
            "uav_altitude_m": 100.0,
            "uav_speed_mps": 20.0,
            "coverage_radius_m": 300.0,
            "erasure_probability": 0.3,
            "source_packet_count": 50,
            "slot_duration_s": 0.5,
            "d2d_range_m": 100.0,
            "n_seeds": 50,
        },
    },
    # Urban altitude-coverage curve and optimum.
    "urban_coverage": {
        "scenario": "coverage",
        "params": {
            "s_curve_a": 9.61,
            "s_curve_b": 0.16,
            "eta_los_db": 1.0,
            "eta_nlos_db": 20.0,
            "carrier_frequency_hz": 2e9,
            "max_path_loss_db": 110.0,
            "altitude_min_m": 10.0,
            "altitude_max_m": 3000.0,
            "altitude_step_m": 10.0,
        },
    },
    # Link-budget probe over a distance grid.
    "channel_probe": {
        "scenario": "channel_probe",
        "params": {
            "carrier_frequency_hz": 5e9,
            "uav_altitude_m": 100.0,
            "ground_ranges_m": [0.0, 100.0, 200.0, 500.0, 1000.0, 2000.0],
            "reference_snr_db": 10.0,
            "reference_distance_m": 509.9019513592785,
            "relative_speed_mps": 100.0,
        },
    },
}


def _require(params: dict, fields: list[str], scenario: str) -> None:
    for name in fields:
        if name not in params:
            raise ConfigError(f"{scenario}: missing required field {name!r}")


_REQUIRED = {
    "relay_trace": ["separation_m", "uav_altitude_m", "carrier_frequency_hz",
                    "delay_budget_s", "speeds_mps", "reference_snr_db"],
    "relay_sweep": ["separation_m", "uav_altitude_m", "carrier_frequency_hz",
                    "delays_s", "speeds_mps", "strategies",
                    "reference_snr_db"],
    "disseminate": ["node_count", "field_length_m", "uav_altitude_m",
                    "uav_speed_mps", "coverage_radius_m",
                    "erasure_probability", "source_packet_count",
                    "slot_duration_s", "d2d_range_m", "n_seeds"],
    "coverage": ["s_curve_a", "s_curve_b", "eta_los_db", "eta_nlos_db",
                 "carrier_frequency_hz", "max_path_loss_db",
                 "altitude_min_m", "altitude_max_m", "altitude_step_m"],
    "channel_probe": ["carrier_frequency_hz", "uav_altitude_m",
                      "ground_ranges_m", "reference_snr_db",
                      "reference_distance_m"],
}


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fail-fast validation; returns the config with warnings populated."""
    if config.scenario not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario {config.scenario!r}; expected "
                          f"one of {SCENARIO_KINDS}")
    if config.time_step <= 0:
        raise ConfigError("time_step must be > 0")
    params = config.params
    _require(params, _REQUIRED[config.scenario], config.scenario)
    frequency = params.get("carrier_frequency_hz")
    # Rebuilt, not appended to: a config is validated again by ``run``.
    config.warnings = []
    if frequency is not None:
        if frequency <= 0:
            raise ConfigError("carrier_frequency_hz must be > 0")
        for lo, hi in (CNPC_L_BAND_HZ, CNPC_C_BAND_HZ):
            if lo <= frequency <= hi:
                config.warnings.append(
                    f"carrier {frequency/1e6:.1f} MHz falls inside the "
                    f"protected CNPC band {lo/1e6:.0f}-{hi/1e6:.0f} MHz")
    # Construct the domain objects now so precondition failures surface
    # before any output is written.
    if config.scenario == "relay_trace":
        for v in params["speeds_mps"]:
            RelayGeometry(params["separation_m"], params["uav_altitude_m"],
                          v, params["delay_budget_s"])
    elif config.scenario == "relay_sweep":
        for strategy in params["strategies"]:
            RelayStrategy(strategy)
        if not params["delays_s"] or not params["speeds_mps"]:
            raise ConfigError("delays_s and speeds_mps must be non-empty")
    elif config.scenario == "disseminate":
        ReceptionModel(params["coverage_radius_m"],
                       params["erasure_probability"])
        FileSpec(params["source_packet_count"])
        if params["n_seeds"] < 1:
            raise ConfigError("n_seeds must be >= 1")
    elif config.scenario == "coverage":
        LosProbabilityModel(params["s_curve_a"], params["s_curve_b"])
        ExcessLoss(params["eta_los_db"], params["eta_nlos_db"])
        # A non-finite bound or step, or a step <= 0, never walks the grid
        # to its end (or skips it entirely for NaN).
        for name in ("altitude_min_m", "altitude_max_m", "altitude_step_m"):
            value = params[name]
            if not (isinstance(value, (int, float))
                    and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number")
        if params["altitude_min_m"] <= 0:
            raise ConfigError("altitude_min_m must be > 0")
        if params["altitude_max_m"] < params["altitude_min_m"]:
            raise ConfigError("altitude_max_m must be >= altitude_min_m")
        if params["altitude_step_m"] <= 0:
            raise ConfigError("altitude_step_m must be > 0")
    return config


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{sorted(PRESETS)}")
    preset = PRESETS[name]
    return validate_config(ExperimentConfig(
        scenario=preset["scenario"],
        params=json.loads(json.dumps(preset["params"])),  # deep copy
    ))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if "preset" in data:
        config = preset_config(data["preset"])
        config.params.update(data.get("params", {}))
    else:
        if "scenario" not in data:
            raise ConfigError("missing required field 'scenario'")
        config = ExperimentConfig(scenario=data["scenario"],
                                  params=data.get("params", {}))
    for name in ("master_seed", "output_directory", "time_step"):
        if name in data:
            setattr(config, name, data[name])
    return validate_config(config)


# ---------------------------------------------------------------------------
# Scenario runners

def _relay_setup(params):
    channel = ChannelModel(carrier_frequency=params["carrier_frequency_hz"])
    mid_slant = math.hypot(params["separation_m"] / 2.0,
                           params["uav_altitude_m"])
    ref = SnrReference(reference_snr_db=params["reference_snr_db"],
                       reference_distance=mid_slant)
    return channel, ref


def _run_relay_trace(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    params = config.params
    channel, ref = _relay_setup(params)
    files, series = [], {}
    runs = [("static", 0.0)] + [("mobile", v) for v in params["speeds_mps"]]
    for strategy, v in runs:
        geom = RelayGeometry(params["separation_m"], params["uav_altitude_m"],
                             v, params["delay_budget_s"])
        result = simulate_cycle(RelayStrategy(strategy), geom, channel, ref,
                                time_step=config.time_step)
        label = "static" if strategy == "static" else f"mobile_v{v:g}"
        name = f"trace_{label}.csv"
        write_trace_csv(result, out / name)
        files.append(name)
        series[name] = {"label": label, "kind": "trace"}
    return files, series


def _run_relay_sweep(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    params = config.params
    channel, ref = _relay_setup(params)
    template = RelayGeometry(params["separation_m"], params["uav_altitude_m"],
                             1.0, 1.0)
    rows = sweep_delay(params["strategies"], template, params["delays_s"],
                       params["speeds_mps"], channel, ref,
                       buffer_capacity=params.get("buffer_capacity",
                                                  math.inf),
                       time_step=config.time_step)
    name = "sweep.csv"
    write_sweep_csv(rows, out / name)
    return [name], {name: {"kind": "sweep",
                           "speeds": params["speeds_mps"],
                           "strategies": params["strategies"]}}


def _dissemination_scenario(params):
    """The seed-free part of a dissemination config: the (slots, nodes)
    coverage mask, the D2D graph, and the reception and file models."""
    n = params["node_count"]
    length = params["field_length_m"]
    spacing = length / n
    positions = [((i + 0.5) * spacing, 0.0) for i in range(n)]
    # Overfly past both field edges so boundary nodes get full coverage
    # windows (otherwise the baseline can starve them of packet indices).
    overshoot = params.get("overshoot_m", params["coverage_radius_m"])
    traj = overflight_trajectory((-overshoot, 0.0, params["uav_altitude_m"]),
                                 (length + overshoot, 0.0,
                                  params["uav_altitude_m"]),
                                 params["uav_speed_mps"], 0.1)
    rx = ReceptionModel(params["coverage_radius_m"],
                        params["erasure_probability"])
    file = FileSpec(params["source_packet_count"])
    coverage = coverage_mask(traj, positions, rx, params["slot_duration_s"])
    return coverage, D2dGraph(positions, params["d2d_range_m"]), rx, file


def run_dissemination_pair(params: dict, seed: int, scenario=None):
    """One seeded coded-vs-baseline comparison.

    ``scenario`` is ``_dissemination_scenario(params)``, built here when
    not given.  Returns the coded transmissions, the ``ExchangeResult``,
    the ``BaselineResult``, and per node the packets held after phase 1
    and the decode flags after phase 2.
    """
    coverage, graph, rx, file = scenario or _dissemination_scenario(params)
    slots, nodes = coverage.shape
    packets = np.zeros((nodes, slots), dtype=bool)
    rng = np.random.default_rng(seed)
    coded_tx = phase1_broadcast(coverage, packets, rx, rng)
    packets_after_phase1 = np.count_nonzero(packets, axis=1)
    exchange = phase2_exchange(packets, graph, file, rng)
    baseline = run_baseline(
        coverage, np.zeros((nodes, file.source_packet_count), dtype=bool),
        file, rx, np.random.default_rng(seed),
        pass_cap=params.get("pass_cap", 1000))
    return (coded_tx, exchange, baseline, packets_after_phase1,
            file.decoded(packets))


def _run_disseminate(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    params = config.params
    scenario = _dissemination_scenario(params)
    summary_rows = []
    detail_rows = []
    for run_index in range(params["n_seeds"]):
        seed = derive_seed(config.master_seed, run_index)
        coded_tx, exchange, baseline, after_p1, decoded = \
            run_dissemination_pair(params, seed, scenario)
        summary_rows.append(["dissem", run_index, "coded_d2d", coded_tx,
                             exchange.rounds_used, int(exchange.success)])
        summary_rows.append(["dissem", run_index, "baseline",
                             baseline.uav_transmissions, 0,
                             int(baseline.success)])
        if run_index == 0:
            detail_rows = zip(range(len(after_p1)), after_p1.tolist(),
                              decoded.astype(int).tolist())
    write_summary_csv(summary_rows, out / "summary.csv")
    write_node_detail_csv(detail_rows, out / "nodes.csv")
    return (["summary.csv", "nodes.csv"],
            {"summary.csv": {"kind": "dissemination_summary"}})


def _run_coverage(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    params = config.params
    los = LosProbabilityModel(params["s_curve_a"], params["s_curve_b"])
    excess = ExcessLoss(params["eta_los_db"], params["eta_nlos_db"])
    name = "coverage.csv"
    best_h, best_r = None, -1.0
    with open(out / name, "w", newline="\n") as fh:
        fh.write("altitude_m,coverage_radius_m\n")
        h = params["altitude_min_m"]
        while h <= params["altitude_max_m"] + 1e-12:
            r = coverage_radius(h, params["max_path_loss_db"],
                                params["carrier_frequency_hz"], los, excess)
            fh.write(f"{h!r},{r!r}\n")
            if r > best_r:
                best_h, best_r = h, r
            h += params["altitude_step_m"]
    return [name], {name: {"kind": "coverage",
                           "optimal_altitude_m": best_h,
                           "optimal_radius_m": best_r}}


def _run_channel_probe(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    params = config.params
    channel = ChannelModel(carrier_frequency=params["carrier_frequency_hz"])
    ref = SnrReference(params["reference_snr_db"],
                       params["reference_distance_m"])
    name = "probe.csv"
    with open(out / name, "w", newline="\n") as fh:
        fh.write("ground_range_m,slant_m,fspl_db,snr_db,se_bpshz,"
                 "doppler_hz\n")
        for r in params["ground_ranges_m"]:
            geo = LinkGeometry(r, params["uav_altitude_m"])
            pl = free_space_path_loss(geo, params["carrier_frequency_hz"])
            snr = snr_at(geo, channel, ref)
            fd = doppler_shift(params.get("relative_speed_mps", 0.0),
                               params["carrier_frequency_hz"])
            fh.write(f"{r!r},{geo.slant_distance!r},{pl!r},{snr!r},"
                     f"{spectral_efficiency(snr)!r},{fd!r}\n")
    return [name], {name: {"kind": "channel_probe"}}


_RUNNERS = {
    "relay_trace": _run_relay_trace,
    "relay_sweep": _run_relay_sweep,
    "disseminate": _run_disseminate,
    "coverage": _run_coverage,
    "channel_probe": _run_channel_probe,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute a validated config; write outputs and the run manifest."""
    validate_config(config)
    out = Path(config.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    files, series = _RUNNERS[config.scenario](config, out)
    n_runs = (config.params["n_seeds"]
              if config.scenario == "disseminate" else len(files))
    manifest = RunManifest(
        config_digest=config.digest(),
        tool_version=__version__,
        scenario=config.scenario,
        output_directory=str(out),
        run_seeds=[derive_seed(config.master_seed, i) for i in range(n_runs)],
        output_files=files,
        series=series,
    )
    manifest.save(out / "manifest.json")
    return manifest


def emit_plot_data(manifest: RunManifest) -> list[str]:
    """Long-format (x, series, y) CSVs matching the figure axes.

    Traces map time to path loss of the active link; sweeps map delay
    budget to spectral efficiency, one series per (strategy, speed).
    """
    out = Path(manifest.output_directory)
    if not manifest.output_files:
        raise ConfigError("manifest lists no output files")
    missing = [f for f in manifest.output_files if not (out / f).exists()]
    if missing:
        raise ConfigError(f"manifest outputs missing: {missing}")
    emitted = []
    trace_rows = []
    for name in manifest.output_files:
        meta = manifest.series.get(name, {})
        if meta.get("kind") == "trace":
            label = meta["label"]
            with open(out / name) as fh:
                fh.readline()
                for line in fh:
                    parts = line.rstrip("\n").split(",")
                    # Active link: source during phase 1, destination after.
                    trace_rows.append((parts[0], label, parts[1], parts[2]))
        elif meta.get("kind") == "sweep":
            rows = []
            with open(out / name) as fh:
                fh.readline()
                for line in fh:
                    delta_s, v, strategy, se, feasible = \
                        line.rstrip("\n").split(",")
                    if feasible != "1" or not se:
                        continue
                    label = (strategy if strategy == "static"
                             else f"{strategy}_v{float(v):g}")
                    rows.append((delta_s, label, se))
            plot_name = "plot_se_vs_delay.csv"
            with open(out / plot_name, "w", newline="\n") as fh:
                fh.write("x,series,y\n")
                seen = set()
                for x, label, y in rows:
                    if label == "static" and (x, label) in seen:
                        continue
                    seen.add((x, label))
                    fh.write(f"{x},{label},{y}\n")
            emitted.append(plot_name)
    if trace_rows:
        plot_name = "plot_path_loss_vs_time.csv"
        half = max(float(r[0]) for r in trace_rows) / 2.0
        with open(out / plot_name, "w", newline="\n") as fh:
            fh.write("x,series,y\n")
            for t_str, label, pl_src, pl_dst in trace_rows:
                y = pl_src if float(t_str) < half else pl_dst
                fh.write(f"{t_str},{label},{y}\n")
        emitted.append(plot_name)
    if not emitted:
        raise ConfigError("manifest contains no plottable outputs")
    return emitted
