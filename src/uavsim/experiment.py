"""Experiment orchestration: config files, presets, seeding, and every
output file.

A config is a JSON document selecting one scenario kind plus its
parameter block.  Each scenario has one setup, which validation builds
and returns, and one runner, which computes its output tables from that
setup with the library's public kernels: ``relay.simulate_cycle`` for
traces, ``relay.sweep`` for sweeps, ``dissemination.compare_schemes`` and
``coverage.coverage_radii``.  ``run`` writes a run's tables and
``emit_plot_data`` its plot tables, each with one call of the CSV writer,
which no other module imports.  Validation leaves the config as it is;
``run`` prints a warning for a carrier in the protected CNPC bands.
Runs are deterministic: per-run seeds derive from the master seed and
run index via SHA-256, and CSV bodies are byte-identical across reruns
of the same config.

Like every uavsim module, this one gets numpy from ``_numpy``, which
loads it without OpenBLAS's idle worker thread.  The dissemination runner
seeds its generators through ``_numpy.import_random``, so no preset maps
OpenSSL's libcrypto: SHA-256 here is CPython's own.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import starmap
from pathlib import Path

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

from . import DomainError, __version__
from ._csvfile import write_csvs
from ._numpy import import_random, np

# The library modules are imported inside each scenario's setup, helpers and
# runner, so a command loads only its own scenario's modules: every start
# compiles the source of each module it imports, and start-up is most of a
# preset's wall time.  Validation builds each scenario's setup, so the
# modules a run uses are loaded by ``load_config``.

# Protected CNPC spectrum; a run whose carrier is inside these bands prints
# a warning (data links should not squat on control spectrum).
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
        # vars, not asdict: the fields are plain JSON values, and asdict
        # would deep-copy them first.
        path.write_text(json.dumps(vars(self), indent=2, sort_keys=True)
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
_TOP_LEVEL = {f.name: f.default for f in fields(ExperimentConfig)
              if f.default is not MISSING}
_CONFIG_KEYS = {"preset", "scenario", "params", *_TOP_LEVEL}
_KINDS = {float: ((int, float), "a finite number"), int: (int, "an integer"),
          str: (str, "a non-empty string"), list: (list, "a non-empty list")}
# Bounds checked before the scenario's setup, though kernels check some of
# them too: the error line then names the config field first, and
# ``time_step`` is bounded even where the scenario never uses it.
# Field -> (limit, limit allowed).
_BOUNDS = {"time_step": (0, False), "carrier_frequency_hz": (0, False),
           "node_count": (1, True), "n_seeds": (1, True),
           "field_length_m": (0, False), "uav_speed_mps": (0, False),
           "slot_duration_s": (0, False), "d2d_range_m": (0, True),
           "altitude_min_m": (0, False), "altitude_step_m": (0, False)}
# Kernel parameter a ``DomainError`` names -> the config fields that set it,
# of which the scenario's schema has one; an absent one is its field's name.
_CONFIG_FIELDS = {
    "separation": ("separation_m",), "uav_altitude": ("uav_altitude_m",),
    "v_max": ("speeds_mps",), "delay_budget": ("delay_budget_s", "delays_s"),
    "coverage_radius": ("coverage_radius_m",), "eta_los": ("eta_los_db",),
    "eta_nlos": ("eta_nlos_db",), "grid_step": ("altitude_step_m",),
    "horizontal_separation": ("ground_ranges_m",),
    "transmitter_height": ("uav_altitude_m",),
    # The relay scenarios' anchor is the midpoint slant, from the separation.
    "reference_distance": ("reference_distance_m", "separation_m"),
    "relative_speed": ("relative_speed_mps",), "k": ("source_packet_count",),
    "frequency": ("carrier_frequency_hz",)}
MAX_CYCLE_SAMPLES = 10 ** 7  # samples in one relay cycle
# Cells in the D2D adjacency, the coverage mask or a seed's packet matrix.
MAX_DISSEMINATION_CELLS = 10 ** 7
MAX_SEEDS = 10 ** 4  # seeded runs of one dissemination config


def _check_value(name: str, value, example) -> None:
    types, kind = _KINDS[type(example)]
    if (isinstance(value, bool) or not isinstance(value, types)
            or value in ([], "")
            or isinstance(value, float) and not math.isfinite(value)
            # A JSON integer in a float field must convert to a float.
            or isinstance(example, float)
            and not -sys.float_info.max <= value <= sys.float_info.max):
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


def validate_config(config: ExperimentConfig):
    """Fail-fast validation; returns the config's scenario setup, which
    ``run`` hands to the scenario's runner, and leaves the config as it is.

    Checks the fields against the scenario's preset, then the bounds by
    building the setup, everything the runner needs, and the size of the
    run: at most ``MAX_CYCLE_SAMPLES`` samples per relay cycle,
    ``coverage.MAX_GRID_POINTS`` altitudes, ``MAX_SEEDS`` dissemination
    seeds of at most ``MAX_DISSEMINATION_CELLS`` cells each, a LoS sigmoid
    that does not overflow and an SNR anchor whose path loss neither
    overflows nor underflows.
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
    # Build the setup now, so that precondition failures surface before any
    # output is written.
    setup, _ = _SCENARIOS[config.scenario]
    try:
        return setup(fields)
    except DomainError as exc:  # its message, in the config's field names
        raise ConfigError(f"{config.scenario}: " + exc.render({
            name: next((field for field in _CONFIG_FIELDS.get(name, ())
                        if field in params), name)
            for name in exc.parameters})) from exc
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{config.scenario}: {exc}") from exc


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
    config = _preset(name)
    validate_config(config)
    return config


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
    except ValueError as exc:  # an integer past int()'s digit limit
        raise ConfigError(f"config parse error: {exc}") from exc
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
    validate_config(config)
    return config


# ---------------------------------------------------------------------------
# Scenario setups and runners

def _series_label(strategy: str, v: float) -> str:
    """The plot series of a relay strategy at speed ``v``; a trace's file
    is ``trace_<label>.csv``."""
    return "static" if strategy == "static" else f"{strategy}_v{v:g}"


def _check_peak_snr(peak_db) -> None:
    """Raise ``ConfigError`` when the spectral efficiency of the peak SNR
    overflows: its linear SNR, ``10 ** (peak_db / 10)``, does above about
    3082.55 dB.  Every other link of the run has a lower SNR."""
    from .channel import spectral_efficiency
    if np.isfinite(spectral_efficiency(peak_db)):
        return
    raise ConfigError(f"the peak SNR, reference_snr_db carried to the "
                      f"shortest link, is {peak_db:.6g} dB, and 10 ** (SNR "
                      f"/ 10) overflows above about 3082.55 dB")


def _relay_setup(fields, delay_field="delays_s"):
    """The carrier frequency, (reference SNR, reference distance) and
    ``relay.sweep_plan`` of a sweep config, its delays in ``delay_field``.
    Checks the series labels, repeats, geometries, samples per cycle, SNR
    anchor and peak SNR, in that order."""
    from .channel import free_space_path_loss, snr_anchor_db
    from .mobility import RelayGeometry, _check_step_divides
    from .relay import sweep_plan
    altitude = fields["uav_altitude_m"]
    speeds, time_step = fields["speeds_mps"], fields["time_step"]
    delays = fields["delays_s"]
    labels = {}
    for v in speeds:
        label = _series_label("mobile", v)
        if label in labels:
            raise ConfigError(f"speeds_mps {labels[label]!r} and {v!r} both "
                              f"have the series label {label}")
        labels[label] = v
    for name in ("strategies", "delays_s"):
        # Equal numbers count as repeats: 5 and 5.0 are one delay.
        if len(set(fields[name])) < len(fields[name]):
            raise ConfigError(f"{name} repeats a value: {fields[name]!r}")
    template = RelayGeometry(fields["separation_m"], altitude, 1.0, 1.0)
    plan = sweep_plan(fields["strategies"], template, delays, speeds)
    for delay in delays:
        # Bounded before it is rounded: a quotient past the largest float
        # is inf, which no integer holds.
        samples = 2 * (delay / time_step) + 1
        if samples > MAX_CYCLE_SAMPLES:
            raise ConfigError(f"{delay_field} {delay} at time_step "
                              f"{time_step} gives {samples:.0f} samples per "
                              f"cycle, more than {MAX_CYCLE_SAMPLES}")
        _check_step_divides(delay, time_step)
    frequency = fields["carrier_frequency_hz"]
    reference = fields["reference_snr_db"], template.midpoint_slant
    # The shortest link a relay can see is the one straight down.
    _check_peak_snr(snr_anchor_db(frequency, *reference, altitude)
                    - free_space_path_loss(0.0, altitude, frequency))
    return frequency, reference, plan


def _trace_setup(fields):
    """A trace config's ``_relay_setup``: a trace is the sweep of static
    and mobile at its one delay."""
    return _relay_setup({**fields, "strategies": ["static", "mobile"],
                         "delays_s": [fields["delay_budget_s"]]},
                        "delay_budget_s")


# The columns of a trace file and of the sweep file, which
# ``emit_plot_data`` reads back.
_TRACE_HEADER = ["time_s", "pl_src_db", "pl_dst_db", "se_bpshz",
                 "buffer_bits"]
_SWEEP_HEADER = ["delta_s", "v_mps", "strategy", "se_bpshz", "feasible"]


def _run_relay_trace(config: ExperimentConfig, setup):
    from .relay import simulate_cycle
    frequency, reference, (_, cycles) = setup
    series = {f"trace_{label}.csv": {"label": label, "kind": "trace"}
              for label in (_series_label(strategy, geom.v_max)
                            for strategy, geom in cycles.values())}

    def table(cycle, name):
        # The result is bound only here, so one cycle's is alive at a time.
        result = simulate_cycle(*cycle, frequency, *reference,
                                time_step=config.time_step)
        return name, _TRACE_HEADER, [
            result.times, result.path_loss_src, result.path_loss_dst,
            result.se, result.occupancy]

    # A generator: ``run`` writes each trace before the next cycle is
    # simulated, and its one writer call formats a float the previous trace
    # had only once.
    return map(table, cycles.values(), series), series, []


def _run_relay_sweep(config: ExperimentConfig, setup):
    from .relay import sweep
    params = config.params
    frequency, reference, plan = setup
    return [("sweep.csv", _SWEEP_HEADER,
             sweep(plan, frequency, *reference, config.time_step))], {
        "sweep.csv": {"kind": "sweep", "speeds": params["speeds_mps"],
                      "strategies": params["strategies"]}}, []


_FLIGHT_STEP_S = 0.1  # s; the overflight lasts a whole number of these


def _flight_ends(params):
    """Start and end of the dissemination overflight.  It passes both
    field edges by the coverage radius, so boundary nodes get full coverage
    windows (otherwise the baseline can starve them of packet indices)."""
    overshoot = params["coverage_radius_m"]
    altitude = params["uav_altitude_m"]
    return ((-overshoot, 0.0, altitude),
            (params["field_length_m"] + overshoot, 0.0, altitude))


def _slot_count(params):
    """Slots of the dissemination overflight: one per ``slot_duration_s``
    over its duration, which is rounded up to whole ``_FLIGHT_STEP_S``;
    ``math.inf`` where that count passes the largest float."""
    from .mobility import _overflight_steps
    steps = _overflight_steps(math.dist(*_flight_ends(params)),
                              params["uav_speed_mps"], _FLIGHT_STEP_S)
    slots = steps * _FLIGHT_STEP_S / params["slot_duration_s"]
    return max(1, int(round(slots))) if math.isfinite(slots) else math.inf


def _dissemination_scenario(params):
    """The seed-free part of a dissemination config: the (slots, nodes)
    coverage mask and the D2D graph.  Checks the coverage radius, erasure
    probability and packet count first, as the kernels check them.

    At most ``MAX_SEEDS`` seeds, and at most ``MAX_DISSEMINATION_CELLS``
    cells in the D2D adjacency, the coverage mask or one seed's (nodes,
    packets) matrix.
    """
    from .dissemination import (D2dGraph, _check_coverage_radius,
                                _check_erasure_probability,
                                _check_packet_count, coverage_mask)
    from .mobility import overflight_x
    n, k = params["node_count"], params["source_packet_count"]
    _check_coverage_radius(params["coverage_radius_m"])
    _check_erasure_probability(params["erasure_probability"])
    _check_packet_count(k)
    slots = _slot_count(params)
    if params["n_seeds"] > MAX_SEEDS:
        raise ConfigError(f"n_seeds {params['n_seeds']} is more than "
                          f"{MAX_SEEDS}")

    def count(value):  # 6 digits; an integer past the floats is inf
        return f"{value if value <= sys.float_info.max else math.inf:.6g}"
    for size, what in (
            (n * n, f"node_count {n} gives a D2D adjacency of "
                    f"{count(n * n)} cells"),
            (slots * n, f"field_length_m, coverage_radius_m, uav_speed_mps "
                        f"and slot_duration_s give {count(slots)} slots, so "
                        f"node_count {n} gives a coverage mask of "
                        f"{count(slots * n)} cells"),
            (n * k, f"node_count {n} and source_packet_count {k} give a "
                    f"packet matrix of {count(n * k)} cells")):
        if size > MAX_DISSEMINATION_CELLS:
            raise ConfigError(f"{what}, more than {MAX_DISSEMINATION_CELLS}")
    spacing = params["field_length_m"] / n
    positions = [((i + 0.5) * spacing, 0.0) for i in range(n)]
    uav = overflight_x(*_flight_ends(params), params["uav_speed_mps"],
                       np.arange(slots) * float(params["slot_duration_s"]))
    return (coverage_mask(uav, positions, params["coverage_radius_m"]),
            D2dGraph(positions, params["d2d_range_m"]))


def _run_disseminate(config: ExperimentConfig, setup):
    from .dissemination import compare_schemes
    params = config.params
    coverage, graph = setup
    n = params["n_seeds"]
    seeds = [derive_seed(config.master_seed, run_index)
             for run_index in range(n)]
    # Each seed seeds one generator for the coded scheme and one for the
    # baseline.
    default_rng = import_random().default_rng
    result = compare_schemes(
        coverage, graph, params["source_packet_count"],
        params["erasure_probability"],
        (default_rng(seed) for seed in seeds),
        (default_rng(seed) for seed in seeds))

    def pairs(coded, baseline):  # per seed, the coded row, then baseline
        column = np.empty(2 * n, dtype=np.int64)
        column[0::2], column[1::2] = coded, baseline
        return column
    summary = [["dissem"] * (2 * n), np.arange(n).repeat(2),
               ["coded_d2d", "baseline"] * n,
               pairs(result["coded_transmissions"],
                     result["baseline_transmissions"]),
               pairs(result["d2d_rounds"], 0),
               pairs(result["coded_success"], result["baseline_success"])]
    # Per node of the first seed.
    after_p1 = result["packets_after_phase1"][0]
    return [("summary.csv", ["scenario_id", "seed", "scheme",
                             "uav_transmissions", "d2d_rounds", "success"],
             summary),
            ("nodes.csv", ["node_id", "packets_after_phase1",
                           "decoded_after_phase2"],
             [range(len(after_p1)), after_p1,
              result["decoded_after_phase2"][0].astype(int)])], \
        {"summary.csv": {"kind": "dissemination_summary"}}, seeds


def _coverage_setup(params):
    """The altitude grid of a coverage config, once ``check_los_model``,
    ``check_excess_loss`` and ``check_carrier`` pass it."""
    from .coverage import (altitude_grid, check_carrier, check_excess_loss,
                           check_los_model)
    check_los_model(params["s_curve_a"], params["s_curve_b"])
    check_excess_loss(params["eta_los_db"], params["eta_nlos_db"])
    if params["altitude_max_m"] < params["altitude_min_m"]:
        raise ConfigError("altitude_max_m must be >= altitude_min_m")
    altitudes = altitude_grid((params["altitude_min_m"],
                               params["altitude_max_m"]),
                              params["altitude_step_m"])
    check_carrier(altitudes, params["carrier_frequency_hz"])
    return altitudes


def _run_coverage(config: ExperimentConfig, altitudes):
    from .coverage import coverage_radii
    params = config.params
    radii = coverage_radii(altitudes, params["max_path_loss_db"],
                           params["carrier_frequency_hz"],
                           params["s_curve_a"], params["s_curve_b"],
                           params["eta_los_db"], params["eta_nlos_db"])
    best = np.argmax(radii)  # the first maximum
    return [("coverage.csv", ["altitude_m", "coverage_radius_m"],
             [altitudes, radii])], {
        "coverage.csv": {"kind": "coverage",
                         "optimal_altitude_m": float(altitudes[best]),
                         "optimal_radius_m": float(radii[best])}}, []


def _probe_columns(params) -> list:
    """The columns of ``probe.csv``, one row per ground range."""
    from .channel import (_check_reference_distance, doppler_shift,
                          free_space_path_loss, slant_distance,
                          snr_anchor_db, spectral_efficiency)
    frequency = params["carrier_frequency_hz"]
    altitude = params["uav_altitude_m"]
    distance = params["reference_distance_m"]
    # ``snr_anchor_db`` checks it too, but its error comes first.
    _check_reference_distance(distance)
    fd = doppler_shift(params["relative_speed_mps"], frequency)
    ranges = params["ground_ranges_m"]
    horizontal = np.array(ranges, dtype=float)
    fspl = free_space_path_loss(horizontal, altitude, frequency)
    snr = (snr_anchor_db(frequency, params["reference_snr_db"], distance,
                         altitude) - fspl)
    _check_peak_snr(snr.max())  # the nearest ground range's
    return [ranges, slant_distance(horizontal, altitude), fspl, snr,
            spectral_efficiency(snr), [fd] * len(ranges)]


# Scenario -> (setup, runner).  A setup takes the config's top-level fields
# and params in one dict; ``runner(config, setup)`` returns the run's tables,
# each ``(file name, header, columns)``, their plot metadata and the run's
# seeds (only dissemination draws random numbers).  The probe's setup
# computes its columns, so its runner only names them.
_SCENARIOS = {
    "relay_trace": (_trace_setup, _run_relay_trace),
    "relay_sweep": (_relay_setup, _run_relay_sweep),
    "disseminate": (_dissemination_scenario, _run_disseminate),
    "coverage": (_coverage_setup, _run_coverage),
    "channel_probe": (_probe_columns, lambda config, columns: (
        [("probe.csv", ["ground_range_m", "slant_m", "fspl_db", "snr_db",
                        "se_bpshz", "doppler_hz"], columns)],
        {"probe.csv": {"kind": "channel_probe"}}, [])),
}


def run(config: ExperimentConfig) -> RunManifest:
    """Validate a config, then run it: write its tables, with one writer
    call, and then the run manifest, which lists them in that order."""
    setup = validate_config(config)
    out = Path(config.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    frequency = config.params.get("carrier_frequency_hz", 0.0)
    for lo, hi in (CNPC_L_BAND_HZ, CNPC_C_BAND_HZ):
        if lo <= frequency <= hi:
            print(f"warning: carrier {frequency/1e6:.1f} MHz falls inside the "
                  f"protected CNPC band {lo/1e6:.0f}-{hi/1e6:.0f} MHz",
                  file=sys.stderr)
    tables, series, seeds = _SCENARIOS[config.scenario][1](config, setup)
    files = []

    def place(name, header, columns):
        files.append(name)
        return out / name, header, columns
    # starmap keeps no table it has passed on, so a written trace's arrays
    # are freed before the next cycle is simulated.
    write_csvs(starmap(place, tables))
    manifest = RunManifest(
        config_digest=config.digest(), tool_version=__version__,
        scenario=config.scenario, output_directory=str(out),
        run_seeds=seeds, output_files=files, series=series)
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
    tables, trace_rows = [], []  # tables: (plot file, its columns)
    for name in manifest.output_files:
        meta = manifest.series.get(name, {})
        try:
            if meta.get("kind") == "trace":
                for t, pl_src, pl_dst, _, _ in _data_rows(
                        out / name, len(_TRACE_HEADER)):
                    trace_rows.append((float(t), t, meta["label"], pl_src,
                                       pl_dst))
            elif meta.get("kind") == "sweep":
                rows, static_seen = [], set()
                for delta_s, v, strategy, se, feasible in \
                        _data_rows(out / name, len(_SWEEP_HEADER)):
                    if feasible != "1" or not se:
                        continue
                    if strategy == "static":
                        if delta_s in static_seen:
                            continue
                        static_seen.add(delta_s)
                    rows.append((delta_s, _series_label(strategy, float(v)),
                                 se))
                tables.append(("plot_se_vs_delay.csv", list(zip(*rows))))
        except ValueError as exc:  # a row too short or long, or not a number
            raise ConfigError(f"malformed {out / name}: {exc}") from exc
    if trace_rows:
        half = max(row[0] for row in trace_rows) / 2.0
        # Active link: source during phase 1, destination after.
        tables.append(("plot_path_loss_vs_time.csv", list(zip(*(
            (t, label, pl_src if time < half else pl_dst)
            for time, t, label, pl_src, pl_dst in trace_rows)))))
    if not tables:
        raise ConfigError("manifest contains no plottable outputs")
    # Every listed file is read and checked before any plot is written.
    write_csvs((out / name, ["x", "series", "y"], columns)
               for name, columns in tables)
    return [name for name, _ in tables]
