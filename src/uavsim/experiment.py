"""Experiment orchestration: config files, presets, seeding, CSV output.

A config is a JSON document selecting one scenario kind plus its
parameter block.  Runs are deterministic: per-run seeds derive from the
master seed and run index via SHA-256, and CSV bodies are byte-identical
across reruns of the same config.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): ``hashlib``
# always imports ``_hashlib``, which maps OpenSSL's libcrypto (about 3 ms
# and 3.6 MB) for two hashes of a few dozen bytes.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from ._csvfile import write_csv

# The library modules are imported inside each scenario's validation branch,
# helpers and runner, so a command loads only its own scenario's modules:
# every start compiles the source of each module it imports, and start-up is
# most of a preset's wall time.  Validation builds each scenario's objects,
# so the modules a run uses are loaded by ``load_config``.

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
        return sha256(self.canonical_json().encode()).hexdigest()


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
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True)
                        + "\n")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        """The manifest at ``path``, its ``output_directory`` the one that
        holds it: ``run`` writes the manifest next to its outputs, and the
        recorded directory may be relative to where the run started."""
        try:
            manifest = cls(**json.loads(Path(path).read_text()))
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot load manifest {path}: {exc}") from exc
        files, series = manifest.output_files, manifest.series
        if not (isinstance(manifest.output_directory, str)
                and isinstance(files, list) and isinstance(series, dict)
                and all(isinstance(name, str) for name in files)
                and all(isinstance(meta, dict) for meta in series.values())):
            raise ConfigError(
                f"manifest {path}: output_directory must be a path, "
                f"output_files a list of file names and series an object "
                f"of objects")
        for name, meta in series.items():
            if meta.get("kind") == "trace" and not isinstance(
                    meta.get("label"), str):
                raise ConfigError(f"manifest {path}: trace series {name!r} "
                                  f"needs a string label")
        manifest.output_directory = str(Path(path).parent)
        return manifest


def derive_seed(master_seed: int, run_index: int) -> int:
    """Stable per-run seed: SHA-256 over (master_seed, run_index)."""
    digest = sha256(f"{master_seed}:{run_index}".encode()).digest()
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


# Each scenario kind has one preset, whose params are its schema: a config
# gives exactly those fields, each with the type of the preset's value.
_SCHEMAS = {preset["scenario"]: preset["params"]
            for preset in PRESETS.values()}
_TOP_LEVEL = {"master_seed": 0, "output_directory": "out", "time_step": 0.01}
_CONFIG_KEYS = {"preset", "scenario", "params", *_TOP_LEVEL}
_KINDS = {float: ((int, float), "a finite number"), int: (int, "an integer"),
          str: (str, "a non-empty string"), list: (list, "a non-empty list")}
# Bounds that no library object checks: field -> (limit, limit allowed).
_BOUNDS = {"time_step": (0, False), "carrier_frequency_hz": (0, False),
           "node_count": (1, True), "n_seeds": (1, True),
           "field_length_m": (0, False), "uav_speed_mps": (0, False),
           "slot_duration_s": (0, False), "d2d_range_m": (0, True),
           "altitude_min_m": (0, False), "altitude_step_m": (0, False)}
# Names the library's errors use -> the config field they were built from;
# of several candidates, the one in the scenario's schema.
_LIBRARY_NAMES = {
    "separation": ("separation_m",), "uav_altitude": ("uav_altitude_m",),
    "v_max": ("speeds_mps",), "delay_budget": ("delay_budget_s", "delays_s"),
    "coverage_radius": ("coverage_radius_m",), "eta_los": ("eta_los_db",),
    "eta_nlos": ("eta_nlos_db",), "grid_step": ("altitude_step_m",),
    "horizontal_separation": ("ground_ranges_m",),
    "transmitter_height": ("uav_altitude_m",),
    # The relay scenarios' anchor is the midpoint slant, from the separation.
    "reference_distance": ("reference_distance_m", "separation_m"),
    "relative_speed": ("relative_speed_mps",),
    "carrier_frequency": ("carrier_frequency_hz",)}
MAX_CYCLE_SAMPLES = 10 ** 7  # samples in one relay cycle
# Cells in the D2D adjacency or the coverage mask.
MAX_DISSEMINATION_CELLS = 10 ** 7


def _check_value(name: str, value, example) -> None:
    types, kind = _KINDS[type(example)]
    if (isinstance(value, bool) or not isinstance(value, types)
            or value in ([], "")
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {kind}, not {value!r}")
    if isinstance(value, list):
        for item in value:
            _check_value(name, item, example[0])


def _check_fields(where: str, values: dict, schema: dict) -> None:
    for name in values:
        if name not in schema:
            raise ConfigError(f"{where}: unknown field {name!r}")
    for name, example in schema.items():
        if name not in values:
            raise ConfigError(f"{where}: missing required field {name!r}")
        _check_value(name, values[name], example)


def _config_terms(message: str, schema: dict) -> str:
    """``message`` with each library name replaced by its config field."""
    def field(match):
        return next((name for name in _LIBRARY_NAMES[match[0]]
                     if name in schema), match[0])
    return re.sub(r"\b(" + "|".join(_LIBRARY_NAMES) + r")\b", field,
                  message)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fail-fast validation; returns the config with warnings populated.

    Checks the fields against the scenario's preset, then the bounds by
    building the objects the scenario's runner builds, and the size of the
    run: at most ``MAX_CYCLE_SAMPLES`` samples per relay cycle,
    ``coverage.MAX_GRID_POINTS`` altitudes, ``MAX_DISSEMINATION_CELLS``
    cells per dissemination seed, a LoS sigmoid that does not overflow and
    an SNR anchor whose path loss does not overflow.
    """
    if not isinstance(config.scenario, str) or config.scenario not in _SCHEMAS:
        raise ConfigError(f"unknown scenario {config.scenario!r}; expected "
                          f"one of {tuple(_SCHEMAS)}")
    params = config.params
    fields = {name: getattr(config, name) for name in _TOP_LEVEL}
    _check_fields("config", fields, _TOP_LEVEL)
    _check_fields(config.scenario, params, _SCHEMAS[config.scenario])
    fields.update(params)
    for name, (limit, closed) in _BOUNDS.items():
        if name in fields and not (fields[name] >= limit if closed
                                   else fields[name] > limit):
            raise ConfigError(f"{name} must be {'>=' if closed else '>'} "
                              f"{limit}")
    if not 0 <= config.master_seed < 2 ** 64:
        raise ConfigError("master_seed must lie in [0, 2**64)")
    frequency = fields.get("carrier_frequency_hz", 0.0)
    config.warnings = [f"carrier {frequency/1e6:.1f} MHz falls inside the "
                       f"protected CNPC band {lo/1e6:.0f}-{hi/1e6:.0f} MHz"
                       for lo, hi in (CNPC_L_BAND_HZ, CNPC_C_BAND_HZ)
                       if lo <= frequency <= hi]
    # Build the runner's domain objects now, so that precondition failures
    # surface before any output is written.
    try:
        if config.scenario in ("relay_trace", "relay_sweep"):
            from .channel import snr_anchor_db
            from .mobility import RelayGeometry, _check_step_divides
            from .relay import RelayStrategy
            channel, ref = _relay_setup(params)
            if config.scenario == "relay_sweep":
                delays = params["delays_s"]
                list(map(RelayStrategy, params["strategies"]))
                for name in ("strategies", "delays_s"):
                    # Equal numbers count as repeats: 5 and 5.0 are one delay.
                    if len(set(params[name])) < len(params[name]):
                        raise ConfigError(f"{name} repeats a value: "
                                          f"{params[name]!r}")
            else:
                delays = [params["delay_budget_s"]]
            speeds = {}
            for v in params["speeds_mps"]:
                label = _series_label("mobile", v)
                if label in speeds:
                    raise ConfigError(
                        f"speeds_mps {speeds[label]!r} and {v!r} both "
                        f"have the series label {label}")
                speeds[label] = v
            for delay in delays:
                for v in params["speeds_mps"]:
                    RelayGeometry(params["separation_m"],
                                  params["uav_altitude_m"], v, delay)
                samples = 2 * _check_step_divides(delay, config.time_step) + 1
                if samples > MAX_CYCLE_SAMPLES:
                    raise ConfigError(
                        f"delay_budget {delay} at time_step "
                        f"{config.time_step} gives {samples} samples per "
                        f"cycle, more than {MAX_CYCLE_SAMPLES}")
            snr_anchor_db(channel, ref, params["uav_altitude_m"])
        elif config.scenario == "disseminate":
            from .dissemination import FileSpec, ReceptionModel
            ReceptionModel(params["coverage_radius_m"],
                           params["erasure_probability"])
            FileSpec(params["source_packet_count"])
            _check_dissemination_size(params)
        elif config.scenario == "coverage":
            from .coverage import _altitude_grid
            los, _ = _coverage_models(params)
            try:
                los.los_probability(0.0)  # the sigmoid's largest exponent
            except OverflowError:
                raise ConfigError(
                    f"s_curve_a * s_curve_b = "
                    f"{params['s_curve_a'] * params['s_curve_b']:g} "
                    f"overflows exp() in the LoS probability at elevation "
                    f"0")
            if params["altitude_max_m"] < params["altitude_min_m"]:
                raise ConfigError("altitude_max_m must be >= altitude_min_m")
            _altitude_grid((params["altitude_min_m"],
                            params["altitude_max_m"]),
                           params["altitude_step_m"])
        else:
            _probe_columns(params)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{config.scenario}: "
                          f"{_config_terms(str(exc), params)}") from exc
    return config


def _preset(name: str) -> ExperimentConfig:
    """The named preset's config, not yet validated."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{sorted(PRESETS)}")
    preset = PRESETS[name]
    return ExperimentConfig(
        scenario=preset["scenario"],
        params=json.loads(json.dumps(preset["params"])),  # deep copy
    )


def preset_config(name: str) -> ExperimentConfig:
    return validate_config(_preset(name))


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
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for name in data:
        if name not in _CONFIG_KEYS:
            raise ConfigError(f"config: unknown field {name!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object")
    if "preset" in data:
        # Validated once, after the overrides are merged.
        config = _preset(data["preset"])
        if data.get("scenario", config.scenario) != config.scenario:
            raise ConfigError(f"scenario {data['scenario']!r} contradicts "
                              f"preset {data['preset']!r}, whose scenario is "
                              f"{config.scenario!r}")
        config.params.update(params)
    else:
        if "scenario" not in data:
            raise ConfigError("missing required field 'scenario'")
        config = ExperimentConfig(scenario=data["scenario"], params=params)
    for name in _TOP_LEVEL:
        if name in data:
            setattr(config, name, data[name])
    return validate_config(config)


# ---------------------------------------------------------------------------
# Scenario runners

def _relay_setup(params):
    from .channel import ChannelModel, SnrReference
    channel = ChannelModel(carrier_frequency=params["carrier_frequency_hz"])
    mid_slant = math.hypot(params["separation_m"] / 2.0,
                           params["uav_altitude_m"])
    ref = SnrReference(reference_snr_db=params["reference_snr_db"],
                       reference_distance=mid_slant)
    return channel, ref


def _series_label(strategy: str, v: float) -> str:
    """The plot series of a relay strategy at speed ``v``; a trace's file
    is ``trace_<label>.csv``."""
    return "static" if strategy == "static" else f"{strategy}_v{v:g}"


def _run_relay_trace(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    from .mobility import RelayGeometry
    from .relay import RelayStrategy, simulate_cycle, write_trace_csvs
    params = config.params
    channel, ref = _relay_setup(params)
    runs = [("static", 0.0)] + [("mobile", v) for v in params["speeds_mps"]]
    labels = [_series_label(strategy, v) for strategy, v in runs]
    files = [f"trace_{label}.csv" for label in labels]

    def traces():  # a generator, so one cycle's result is alive at a time
        for (strategy, v), name in zip(runs, files):
            geom = RelayGeometry(params["separation_m"],
                                 params["uav_altitude_m"], v,
                                 params["delay_budget_s"])
            yield simulate_cycle(RelayStrategy(strategy), geom, channel, ref,
                                 time_step=config.time_step), out / name

    write_trace_csvs(traces())
    return files, {name: {"label": label, "kind": "trace"}
                   for name, label in zip(files, labels)}


def _run_relay_sweep(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    from .mobility import RelayGeometry
    from .relay import sweep_delay, write_sweep_csv
    params = config.params
    channel, ref = _relay_setup(params)
    template = RelayGeometry(params["separation_m"], params["uav_altitude_m"],
                             1.0, 1.0)
    rows = sweep_delay(params["strategies"], template, params["delays_s"],
                       params["speeds_mps"], channel, ref,
                       time_step=config.time_step)
    name = "sweep.csv"
    write_sweep_csv(rows, out / name)
    return [name], {name: {"kind": "sweep",
                           "speeds": params["speeds_mps"],
                           "strategies": params["strategies"]}}


_FLIGHT_STEP_S = 0.1  # s; the overflight lasts a whole number of these


def _flight_ends(params):
    """Start and end of the dissemination overflight.  It passes both
    field edges by the coverage radius, so boundary nodes get full coverage
    windows (otherwise the baseline can starve them of packet indices)."""
    overshoot = params["coverage_radius_m"]
    altitude = params["uav_altitude_m"]
    return ((-overshoot, 0.0, altitude),
            (params["field_length_m"] + overshoot, 0.0, altitude))


def _slot_count(params) -> int:
    """Slots of the dissemination overflight: one per ``slot_duration_s``
    over its duration, which is rounded up to whole ``_FLIGHT_STEP_S``."""
    from .mobility import _overflight_steps
    steps = _overflight_steps(math.dist(*_flight_ends(params)),
                              params["uav_speed_mps"], _FLIGHT_STEP_S)
    return max(1, int(round(steps * _FLIGHT_STEP_S
                            / params["slot_duration_s"])))


def _check_dissemination_size(params) -> None:
    """At most ``MAX_DISSEMINATION_CELLS`` cells in the D2D adjacency or
    the coverage mask."""
    nodes = params["node_count"]
    slots = _slot_count(params)
    for size, what in (
            (nodes * nodes, f"node_count {nodes} gives a D2D adjacency of "
                            f"{nodes * nodes} cells"),
            (slots * nodes, f"field_length_m, uav_speed_mps and "
                            f"slot_duration_s give {slots} slots, so "
                            f"node_count {nodes} gives a coverage mask of "
                            f"{slots * nodes} cells")):
        if size > MAX_DISSEMINATION_CELLS:
            raise ConfigError(f"{what}, more than {MAX_DISSEMINATION_CELLS}")


def _dissemination_scenario(params):
    """The seed-free part of a dissemination config: the (slots, nodes)
    coverage mask, the D2D graph, and the reception and file models."""
    from .dissemination import (D2dGraph, FileSpec, ReceptionModel,
                                coverage_mask)
    from .mobility import overflight_x
    n = params["node_count"]
    spacing = params["field_length_m"] / n
    positions = [((i + 0.5) * spacing, 0.0) for i in range(n)]
    uav = overflight_x(*_flight_ends(params), params["uav_speed_mps"],
                       np.arange(_slot_count(params))
                       * params["slot_duration_s"])
    rx = ReceptionModel(params["coverage_radius_m"],
                        params["erasure_probability"])
    file = FileSpec(params["source_packet_count"])
    coverage = coverage_mask(uav, positions, rx)
    return coverage, D2dGraph(positions, params["d2d_range_m"]), rx, file


def run_dissemination_pairs(params: dict, seeds) -> list:
    """Seeded coded-vs-baseline comparisons, all seeds in one batched pass.

    Returns per seed the coded transmissions, the ``ExchangeResult``, the
    ``BaselineResult``, and per node the packets held after phase 1 and
    the decode flags after phase 2.  Each seed seeds one generator for the
    coded scheme and one for the baseline.
    """
    from .dissemination import compare_schemes
    coverage, graph, rx, file = _dissemination_scenario(params)
    return compare_schemes(coverage, graph, file, rx,
                           (np.random.default_rng(seed) for seed in seeds),
                           (np.random.default_rng(seed) for seed in seeds))


def run_dissemination_pair(params: dict, seed: int):
    """One seeded coded-vs-baseline comparison: ``run_dissemination_pairs``
    for the one seed."""
    return run_dissemination_pairs(params, [seed])[0]


def _run_disseminate(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    from .dissemination import write_node_detail_csv, write_summary_csv
    params = config.params
    seeds = [derive_seed(config.master_seed, run_index)
             for run_index in range(params["n_seeds"])]
    summary_rows = []
    detail_rows = []
    for run_index, (coded_tx, exchange, baseline, after_p1, decoded) in \
            enumerate(run_dissemination_pairs(params, seeds)):
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


def _coverage_models(params):
    from .coverage import ExcessLoss, LosProbabilityModel
    return (LosProbabilityModel(params["s_curve_a"], params["s_curve_b"]),
            ExcessLoss(params["eta_los_db"], params["eta_nlos_db"]))


def _run_coverage(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    from .coverage import coverage_curve, write_coverage_csv
    params = config.params
    altitudes, radii = coverage_curve(
        (params["altitude_min_m"], params["altitude_max_m"]),
        params["max_path_loss_db"], params["carrier_frequency_hz"],
        *_coverage_models(params), grid_step=params["altitude_step_m"])
    name = "coverage.csv"
    write_coverage_csv(altitudes, radii, out / name)
    best = np.argmax(radii)  # the first maximum
    return [name], {name: {"kind": "coverage",
                           "optimal_altitude_m": float(altitudes[best]),
                           "optimal_radius_m": float(radii[best])}}


def _probe_columns(params) -> list:
    """The columns of ``probe.csv``, one row per ground range."""
    from .channel import (ChannelModel, LinkGeometry, SnrReference,
                          doppler_shift, snr_anchor_db, spectral_efficiency)
    frequency = params["carrier_frequency_hz"]
    altitude = params["uav_altitude_m"]
    channel = ChannelModel(carrier_frequency=frequency)
    ref = SnrReference(params["reference_snr_db"],
                       params["reference_distance_m"])
    fd = doppler_shift(params["relative_speed_mps"], frequency)
    ranges = params["ground_ranges_m"]
    geo = LinkGeometry(np.array(ranges, dtype=float), altitude)
    fspl = channel.path_loss_db(geo)
    snr = snr_anchor_db(channel, ref, altitude) - fspl
    return [ranges, geo.slant_distance, fspl, snr, spectral_efficiency(snr),
            [fd] * len(ranges)]


def _run_channel_probe(config: ExperimentConfig, out: Path) -> tuple[list, dict]:
    name = "probe.csv"
    write_csv(out / name, ["ground_range_m", "slant_m", "fspl_db", "snr_db",
                           "se_bpshz", "doppler_hz"],
              _probe_columns(config.params))
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
    # Only dissemination draws random numbers.
    seeded = (range(config.params["n_seeds"])
              if config.scenario == "disseminate" else ())
    manifest = RunManifest(
        config_digest=config.digest(),
        tool_version=__version__,
        scenario=config.scenario,
        output_directory=str(out),
        run_seeds=[derive_seed(config.master_seed, i) for i in seeded],
        output_files=files,
        series=series,
    )
    manifest.save(out / "manifest.json")
    return manifest


def _data_rows(path: Path, width: int) -> list[list[str]]:
    """The rows below the header of a run's CSV, each ``width`` fields."""
    import csv  # only ``uavsim plot`` reads CSVs
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for line, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValueError(f"line {line} has {len(row)} fields, not {width}")
    return rows


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
        try:
            if meta.get("kind") == "trace":
                for t, pl_src, pl_dst, _, _ in _data_rows(out / name, 5):
                    trace_rows.append((float(t), t, meta["label"], pl_src,
                                       pl_dst))
            elif meta.get("kind") == "sweep":
                rows, static_seen = [], set()
                for delta_s, v, strategy, se, feasible in \
                        _data_rows(out / name, 5):
                    if feasible != "1" or not se:
                        continue
                    if strategy == "static":
                        if delta_s in static_seen:
                            continue
                        static_seen.add(delta_s)
                    rows.append((delta_s, _series_label(strategy, float(v)),
                                 se))
                plot_name = "plot_se_vs_delay.csv"
                write_csv(out / plot_name, ["x", "series", "y"], zip(*rows))
                emitted.append(plot_name)
        except ValueError as exc:  # a row too short or long, or not a number
            raise ConfigError(f"malformed {out / name}: {exc}") from exc
    if trace_rows:
        plot_name = "plot_path_loss_vs_time.csv"
        half = max(row[0] for row in trace_rows) / 2.0
        # Active link: source during phase 1, destination after.
        write_csv(out / plot_name, ["x", "series", "y"],
                  zip(*((t, label, pl_src if time < half else pl_dst)
                        for time, t, label, pl_src, pl_dst in trace_rows)))
        emitted.append(plot_name)
    if not emitted:
        raise ConfigError("manifest contains no plottable outputs")
    return emitted
