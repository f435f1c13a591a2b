import ast
import collections
import contextlib
import copy
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from uavsim import _csvfile, coverage, dissemination, experiment, relay
from uavsim.cli import main
from uavsim.experiment import (CNPC_L_BAND_HZ, PRESETS, ConfigError,
                               ExperimentConfig, RunManifest,
                               _dissemination_scenario, derive_seed,
                               emit_plot_data, load_config, preset_config,
                               run)

AVX512 = __cpu_features__.get("X86_V4", False)  # numpy's AVX-512 loops
COMMANDS = {"relay_trace": ["relay", "trace"],
            "relay_sweep": ["relay", "sweep"],
            "disseminate": ["disseminate"], "coverage": ["coverage"],
            "channel_probe": ["channel", "probe"]}


def run_cli(config: dict, directory: Path, *flags: str):
    """``uavsim <scenario's command> --config`` on ``config``; returns the
    exit code, the stderr lines and the output directory."""
    scenario = config.get("scenario") or PRESETS[config["preset"]]["scenario"]
    path = directory / "c.json"
    path.write_text(json.dumps(config))  # NaN and Infinity as literals
    out = directory / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*COMMANDS[scenario], "--config", str(path),
                     "--out", str(out), *flags])
    return code, stderr.getvalue().splitlines(), out


def assert_config_error(code, lines, out):
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert not out.exists()


def read(path):
    return path.read_text()


_FUZZ_NUMBERS = st.one_of(
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7e308,
                     math.inf, -math.inf, math.nan, 10 ** 400, 2 ** 63, -1]),
    st.floats(-1e4, 1e4), st.integers(-10, 10 ** 6))


def fuzz_values(example):
    """Values of a fuzzed field whose preset value is ``example``: numbers,
    among them the extremes, JSON's NaN and Infinity, integers past the
    floats and values near the preset's; several for a list; and the
    strategies' names, or any other short text."""
    if isinstance(example, list):
        return st.lists(fuzz_values(example[0]), max_size=4)
    if isinstance(example, str):
        return st.one_of(st.sampled_from(["static", "mobile", "ferry"]),
                         st.text(max_size=6))
    return st.one_of(_FUZZ_NUMBERS, st.floats(0.5, 2.0).map(
        lambda factor: type(example)(example * factor)))


# Size bounds low enough that every run the fuzz admits is small; the
# seed bound admits the preset's own 50.
FUZZ_BOUNDS = [(experiment, "MAX_CYCLE_SAMPLES", 20_000),
               (experiment, "MAX_DISSEMINATION_CELLS", 20_000),
               (experiment, "MAX_SEEDS", 50),
               (coverage, "MAX_GRID_POINTS", 2_000)]


class TestPresets:
    def test_fig3_expansion(self):
        config = preset_config("fig3")
        p = config.params
        assert config.scenario == "relay_trace"
        assert p["separation_m"] == 1000.0
        assert p["uav_altitude_m"] == 100.0
        assert p["carrier_frequency_hz"] == 5e9
        assert p["delay_budget_s"] == 20.0
        assert p["speeds_mps"] == [10.0, 30.0, 100.0]

    def test_fig4_expansion(self):
        config = preset_config("fig4")
        assert config.scenario == "relay_sweep"
        assert config.params["reference_snr_db"] == 10.0
        assert set(config.params["strategies"]) == {"static", "mobile"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig99")

    @pytest.mark.parametrize("name,digest", [
        ("channel_probe",
         "d721f7e0764ad840cf591141d517819c5388aedf10cb264ebad85fdbbc75308d"),
        ("dissem20",
         "aec945bfbd2878df32135475fe48b9f4455cb2d785e0c044d02cace466b0d2b8"),
        ("fig3",
         "570d2862e5592a519249971a9c285e3c32a3777d66f1ec051255e6725381f6e3"),
        ("fig4",
         "c257541c25002e081b6bfdb9eeb0a56a32fb0d4f944d541bcf9f385dc93efca5"),
        ("urban_coverage",
         "2790e9703f39f321e3583f6e704e4675528d69b59bc27f4d9c485da2e7689526"),
    ])
    def test_digest_pinned(self, name, digest):
        assert preset_config(name).digest() == digest

    def test_one_preset_per_scenario(self):
        scenarios = [preset["scenario"] for preset in PRESETS.values()]
        assert sorted(scenarios) == sorted(COMMANDS)


# Per preset, the functions that build its setup, and a params override.
SETUP_BUILDS = {
    # A trace's setup is the sweep plan of its one delay.
    "fig3": ({"_relay_setup", "sweep_plan"}, {"delay_budget_s": 10.0}),
    "fig4": ({"_relay_setup", "sweep_plan"}, {"delays_s": [5.0, 10.0]}),
    "dissem20": ({"_slot_count", "coverage_mask"}, {"n_seeds": 2}),
    "urban_coverage": ({"altitude_grid"}, {"altitude_step_m": 2.0}),
    "channel_probe": ({"_probe_columns"}, {"relative_speed_mps": 50.0}),
}


class TestLoadConfig:
    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scenario": "relay_trace",
            "params": {"separation_m": 1000.0},
        }))
        with pytest.raises(ConfigError, match="uav_altitude_m"):
            load_config(path)

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": relay_trace}\n')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_preset_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "preset": "fig3",
            "params": {"delay_budget_s": 10.0},
            "master_seed": 99,
        }))
        config = load_config(path)
        assert config.params["delay_budget_s"] == 10.0
        assert config.params["separation_m"] == 1000.0
        assert config.master_seed == 99

    def test_cnpc_band_warning(self, tmp_path, capsys):
        # Validation leaves the config as it is; the run warns.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "preset": "fig3",
            "params": {"carrier_frequency_hz": CNPC_L_BAND_HZ[0] + 1e6},
            "output_directory": str(tmp_path / "out"),
        }))
        config = load_config(path)
        loaded = copy.deepcopy(config)
        assert capsys.readouterr().err == ""
        run(config)
        assert config == loaded
        assert any("CNPC" in line
                   for line in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("text", [
        '"preset"', "[1]", '{"preset": "fig3", "params": [1]}',
        '{"preset": ["fig3"]}', '{"scenario": "relay_trace", "params": 5}',
        '{"scenario": ["relay_trace"], "params": {}}',
        '{"preset": "fig3", "time_stepp": 0.01}',
        # An integer past int()'s default limit of 4,300 digits.
        pytest.param('{"preset": "fig3", "params": {"uav_altitude_m": 1%s}}'
                      % ("0" * 5000), id="int_of_5001_digits")])
    def test_malformed_document(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_param_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "fig3",
                                    "params": {"delay_budget": 10.0}}))
        with pytest.raises(ConfigError, match="'delay_budget'"):
            load_config(path)

    def test_int_accepted_for_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "fig4",
                                    "params": {"delays_s": [5, 10]},
                                    "time_step": 1}))
        assert load_config(path).params["delays_s"] == [5, 10]

    def test_unknown_scenario(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "bogus", "params": {}}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    @pytest.mark.parametrize("preset", sorted(SETUP_BUILDS))
    def test_builds_each_setup_once_per_validation(self, tmp_path, preset):
        """``load_config`` validates a preset with overrides once, after
        merging them, not the bare preset first; ``run`` validates once
        more and hands that validation's setup to the runner, which builds
        none of it again."""
        builders, overrides = SETUP_BUILDS[preset]
        counts = collections.Counter()

        def count(frame, event, arg):
            if (event == "call" and frame.f_code.co_name in builders
                    and frame.f_globals["__name__"].startswith("uavsim.")):
                counts[frame.f_code.co_name] += 1

        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "preset": preset, "params": overrides,
            "output_directory": str(tmp_path / "out")}))
        sys.setprofile(count)
        try:
            config = load_config(path)
            loaded = dict(counts)
            run(config)
        finally:
            sys.setprofile(None)
        assert loaded == dict.fromkeys(builders, 1)
        assert counts == dict.fromkeys(builders, 2)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)


# Hashes ``experiment`` while CPython's built-in SHA-256 modules cannot be
# imported, so that it falls back to ``hashlib``.
FALLBACK_PROBE = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from uavsim import experiment
print(json.dumps({
    "hashlib": experiment.sha256 is hashlib.sha256,
    "digests": {name: experiment.preset_config(name).digest()
                for name in sorted(experiment.PRESETS)},
    "seeds": [experiment.derive_seed(m, i)
              for m in (0, 7919, 2 ** 64 - 1) for i in range(3)]}))
"""


class TestSha256:
    """``experiment`` hashes with CPython's built-in SHA-256, which must
    give exactly what ``hashlib.sha256`` gives."""

    def test_pinned(self):
        assert preset_config("fig4").digest() == (
            "c257541c25002e081b6bfdb9eeb0a56a32fb0d4f944d541bcf9f385dc93efca5")
        assert derive_seed(0, 0) == 12426054289685354689

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
               st.text(max_size=12),
               st.one_of(st.floats(), st.integers(), st.text(max_size=20),
                         st.lists(st.floats(allow_nan=False), max_size=4)),
               max_size=6),
           st.text(max_size=16), st.integers(0, 2 ** 64 - 1), st.floats())
    def test_digest_matches_hashlib(self, params, scenario, seed, step):
        config = ExperimentConfig(scenario=scenario, params=params,
                                  master_seed=seed, time_step=step)
        assert config.digest() == hashlib.sha256(
            config.canonical_json().encode()).hexdigest()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 10 ** 9))
    def test_derive_seed_matches_hashlib(self, master_seed, run_index):
        digest = hashlib.sha256(f"{master_seed}:{run_index}".encode())
        assert derive_seed(master_seed, run_index) == int.from_bytes(
            digest.digest()[:8], "big")

    def test_hashlib_fallback_gives_the_same_hashes(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", FALLBACK_PROBE],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        fallback = json.loads(done.stdout)
        assert fallback["hashlib"]
        assert experiment.sha256 is not hashlib.sha256
        assert fallback["digests"] == {
            name: preset_config(name).digest() for name in sorted(PRESETS)}
        assert fallback["seeds"] == [derive_seed(m, i)
                                     for m in (0, 7919, 2 ** 64 - 1)
                                     for i in range(3)]


class TestRun:
    def test_fig3_outputs_and_manifest(self, tmp_path):
        config = preset_config("fig3")
        config.output_directory = str(tmp_path / "fig3")
        manifest = run(config)
        out = tmp_path / "fig3"
        for name in manifest.output_files:
            assert (out / name).exists()
        assert (out / "manifest.json").exists()
        labels = {meta["label"] for meta in manifest.series.values()}
        assert labels == {"static", "mobile_v10", "mobile_v30",
                          "mobile_v100"}

    def test_fig3_plateau_gap_in_csv(self, tmp_path):
        config = preset_config("fig3")
        config.output_directory = str(tmp_path)
        run(config)
        static_pl = float(read(tmp_path / "trace_static.csv")
                          .splitlines()[1].split(",")[1])
        mobile_lines = read(tmp_path / "trace_mobile_v100.csv").splitlines()
        plateau = min(float(line.split(",")[1]) for line in mobile_lines[1:])
        assert static_pl - plateau == pytest.approx(14.15, abs=0.05)

    def test_fig3_formats_a_float_the_previous_trace_had_once(
            self, tmp_path, monkeypatch):
        """The four traces go through one writer call: the first formats
        all 7,854 distinct floats of its columns, each later one only
        those the trace before it lacks.  Column by column, as before
        that call, the run formatted 45,199.  On numpy's baseline loops,
        which round the mobile traces' logs and powers differently from its
        AVX-512 loops, the later traces lack 7 more (see test_golden)."""
        formatted = []
        reprs = _csvfile._reprs

        def counted(values):
            formatted.append(len(values))
            return reprs(values)

        monkeypatch.setattr(_csvfile, "_reprs", counted)
        config = preset_config("fig3")
        config.output_directory = str(tmp_path)
        run(config)
        assert formatted[0] == 7854
        assert sum(formatted) == (26849 if AVX512 else 26856)

    def test_fig3_writes_each_trace_before_the_next_cycle(
            self, tmp_path, monkeypatch):
        """The runner streams its cycles: each trace file is complete on
        disk before the next cycle is simulated."""
        seen = []
        simulate = relay.simulate_cycle

        def spy(*args, **kwargs):
            seen.append({path.name: path.stat().st_size
                         for path in tmp_path.glob("trace_*.csv")})
            return simulate(*args, **kwargs)

        monkeypatch.setattr(relay, "simulate_cycle", spy)
        config = preset_config("fig3")
        config.output_directory = str(tmp_path)
        files = run(config).output_files
        final = {name: (tmp_path / name).stat().st_size for name in files}
        assert seen == [{name: final[name] for name in files[:i]}
                        for i in range(len(files))]

    @pytest.mark.parametrize("preset,library,kernel,calls", [
        ("fig3", relay, "simulate_cycle", 4),
        ("fig4", relay, "sweep", 1),
        ("dissem20", dissemination, "compare_schemes", 1),
        ("urban_coverage", coverage, "coverage_radii", 1)])
    def test_runs_the_public_kernel(self, tmp_path, monkeypatch, preset,
                                    library, kernel, calls):
        """Each runner computes through its library's public kernel, the
        function the library's tests pin."""
        called = []
        public = getattr(library, kernel)

        def counting(*args, **kwargs):
            called.append(kernel)
            return public(*args, **kwargs)

        monkeypatch.setattr(library, kernel, counting)
        config = preset_config(preset)
        config.output_directory = str(tmp_path)
        run(config)
        assert len(called) == calls

    def test_rerun_byte_identical(self, tmp_path):
        bodies = []
        for sub in ("a", "b"):
            config = preset_config("dissem20")
            config.params["n_seeds"] = 3
            config.master_seed = 7
            config.output_directory = str(tmp_path / sub)
            manifest = run(config)
            bodies.append([read(tmp_path / sub / f)
                           for f in manifest.output_files])
        assert bodies[0] == bodies[1]

    def test_seed_change_alters_stochastic_output_only(self, tmp_path):
        summaries = []
        traces = []
        for seed in (1, 2):
            config = preset_config("dissem20")
            config.params["n_seeds"] = 2
            config.master_seed = seed
            config.output_directory = str(tmp_path / f"d{seed}")
            run(config)
            summaries.append(read(tmp_path / f"d{seed}" / "summary.csv"))
            trace_config = preset_config("fig3")
            trace_config.master_seed = seed
            trace_config.output_directory = str(tmp_path / f"t{seed}")
            run(trace_config)
            traces.append(read(tmp_path / f"t{seed}" / "trace_mobile_v100.csv"))
        assert summaries[0] != summaries[1]
        assert traces[0] == traces[1]  # deterministic scenario, seed-free

    def test_manifest_roundtrip(self, tmp_path):
        config = preset_config("channel_probe")
        config.output_directory = str(tmp_path)
        manifest = run(config)
        loaded = RunManifest.load(tmp_path / "manifest.json")
        assert loaded.config_digest == manifest.config_digest
        assert loaded.output_files == manifest.output_files

    def test_manifest_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = preset_config("dissem20")
        config.params["n_seeds"] = 2
        config.master_seed = 7
        config.output_directory = "out"
        run(config)
        assert (tmp_path / "out" / "manifest.json").read_text() == (
            '{\n'
            '  "config_digest": "e0c345b4fa40f86a89d1af8cb68efbb788aa849da9a'
            '39b48d80b547c947bdcc0",\n'
            '  "output_directory": "out",\n'
            '  "output_files": [\n'
            '    "summary.csv",\n'
            '    "nodes.csv"\n'
            '  ],\n'
            '  "run_seeds": [\n'
            '    17725994237439495539,\n'
            '    15537646209016443107\n'
            '  ],\n'
            '  "scenario": "disseminate",\n'
            '  "series": {\n'
            '    "summary.csv": {\n'
            '      "kind": "dissemination_summary"\n'
            '    }\n'
            '  },\n'
            f'  "tool_version": "{experiment.__version__}"\n'
            '}\n')

    def test_run_seeds_only_for_seeded_runs(self, tmp_path):
        for name in ("fig3", "channel_probe"):
            config = preset_config(name)
            config.output_directory = str(tmp_path / name)
            assert run(config).run_seeds == []
        config = preset_config("dissem20")
        config.params["n_seeds"] = 3
        config.master_seed = 7
        config.output_directory = str(tmp_path / "dissem20")
        seeds = [derive_seed(7, i) for i in range(3)]
        assert run(config).run_seeds == seeds
        assert RunManifest.load(tmp_path / "dissem20" / "manifest.json") \
            .run_seeds == seeds

    @pytest.mark.parametrize("text", [None, "{nope", "[1]",
                                      '{"config_digest": "d"}'])
    def test_manifest_load_errors(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match="manifest"):
            RunManifest.load(path)

    def test_manifest_unknown_key(self, tmp_path):
        config = preset_config("channel_probe")
        config.output_directory = str(tmp_path)
        run(config)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "x": 1}))
        with pytest.raises(ConfigError, match="'x'"):
            RunManifest.load(path)

    def test_failfast_writes_nothing(self, tmp_path):
        config = ExperimentConfig(scenario="relay_trace", params={},
                                  output_directory=str(tmp_path / "x"))
        with pytest.raises(ConfigError):
            run(config)
        assert not (tmp_path / "x").exists()

    def test_dissem20_derives_each_seed_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(master_seed, run_index):
            calls.append(run_index)
            return derive_seed(master_seed, run_index)

        monkeypatch.setattr(experiment, "derive_seed", counted)
        config = preset_config("dissem20")
        config.output_directory = str(tmp_path)
        seeds = run(config).run_seeds
        assert calls == list(range(50))
        assert seeds == [derive_seed(0, i) for i in range(50)]


class TestRunnerFiles:
    """The files each runner writes, with the headers ``experiment``
    gives them."""

    def test_only_experiment_imports_the_writer(self):
        package = Path(experiment.__file__).parent
        importers = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = [alias.name for alias in getattr(node, "names", [])]
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                        "_csvfile" in name for name in names):
                    importers.add(path.stem)
        assert importers == {"experiment"}

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_run_writes_its_files_with_one_call(self, tmp_path, monkeypatch,
                                                preset):
        """A runner returns its tables and takes no output directory; ``run``
        writes them with one writer call and lists them in its order."""
        _, runner = experiment._SCENARIOS[PRESETS[preset]["scenario"]]
        assert len(inspect.signature(runner).parameters) == 2
        calls, write = [], experiment.write_csvs

        def counted(tables):
            names = []
            calls.append(names)

            def named():
                for path, header, columns in tables:
                    names.append(path.name)
                    yield path, header, columns

            write(named())

        monkeypatch.setattr(experiment, "write_csvs", counted)
        config = preset_config(preset)
        config.output_directory = str(tmp_path)
        manifest = run(config)
        assert calls == [manifest.output_files]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [*manifest.output_files, "manifest.json"])

    @pytest.mark.parametrize("preset,emitted", [
        ("fig3", ["plot_path_loss_vs_time.csv"]),
        ("fig4", ["plot_se_vs_delay.csv"])])
    def test_plot_writes_its_files_with_one_call(self, tmp_path, monkeypatch,
                                                 preset, emitted):
        config = preset_config(preset)
        config.output_directory = str(tmp_path)
        manifest = run(config)
        calls, write = [], experiment.write_csvs

        def counted(tables):
            calls.append(1)
            write(tables)

        monkeypatch.setattr(experiment, "write_csvs", counted)
        assert emit_plot_data(manifest) == emitted
        assert calls == [1]

    def test_trace_files(self, tmp_path):
        config = preset_config("fig3")
        config.time_step = 0.1
        config.output_directory = str(tmp_path)
        manifest = run(config)
        channel, ref, (_, cycles) = experiment._trace_setup(
            {**config.params, "time_step": 0.1})
        strategy, geom = list(cycles.values())[-1]  # mobile at 100 m/s
        cycle = relay.simulate_cycle(strategy, geom, channel, *ref,
                                     time_step=0.1)
        assert len(manifest.output_files) == 4
        for name in manifest.output_files:
            text = read(tmp_path / name)
            lines = text.splitlines()
            assert lines[0] == "time_s,pl_src_db,pl_dst_db,se_bpshz,buffer_bits"
            assert len(lines) == len(cycle.times) + 1
            assert "np." not in text
        assert read(tmp_path / "trace_mobile_v100.csv").splitlines()[1:] == [
            ",".join(map(repr, row)) for row in zip(
                cycle.times.tolist(), cycle.path_loss_src.tolist(),
                cycle.path_loss_dst.tolist(), cycle.se.tolist(),
                cycle.occupancy.tolist())]

    def test_sweep_file(self, tmp_path):
        code, lines, out = run_cli({"preset": "fig4", "params": {
            "strategies": ["static", "ferry"], "delays_s": [10.0],
            "speeds_mps": [10.0]}, "time_step": 0.1}, tmp_path)
        assert (code, lines) == (0, [])
        rows = read(out / "sweep.csv").splitlines()
        assert rows[0] == "delta_s,v_mps,strategy,se_bpshz,feasible"
        assert rows[1].startswith("10.0,10.0,static,")
        assert rows[1].endswith(",1")
        assert rows[2] == "10.0,10.0,ferry,,0"  # infeasible ferry row
        assert len(rows) == 3

    def test_coverage_file_bytes(self, tmp_path):
        from uavsim.coverage import altitude_grid, coverage_radii
        params = {"altitude_min_m": 100.0, "altitude_max_m": 200.0,
                  "altitude_step_m": 100.0}
        code, lines, out = run_cli({"preset": "urban_coverage",
                                    "params": params}, tmp_path)
        assert (code, lines) == (0, [])
        full = {**PRESETS["urban_coverage"]["params"], **params}
        altitudes = altitude_grid((100.0, 200.0), 100.0)
        radii = coverage_radii(
            altitudes, full["max_path_loss_db"], full["carrier_frequency_hz"],
            full["s_curve_a"], full["s_curve_b"], full["eta_los_db"],
            full["eta_nlos_db"])
        assert altitudes.tolist() == [100.0, 200.0]
        assert (out / "coverage.csv").read_bytes() == (
            "altitude_m,coverage_radius_m\n"
            + "".join(f"{a!r},{r!r}\n" for a, r in zip(altitudes.tolist(),
                                                       radii.tolist()))
        ).encode()


class TestEmitPlotData:
    def test_fig4_series_labels(self, tmp_path):
        config = preset_config("fig4")
        config.output_directory = str(tmp_path)
        manifest = run(config)
        emitted = emit_plot_data(manifest)
        assert "plot_se_vs_delay.csv" in emitted
        lines = read(tmp_path / "plot_se_vs_delay.csv").splitlines()
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {"static", "mobile_v10", "mobile_v30",
                          "mobile_v100"}

    def test_fig3_x_range_spans_cycle(self, tmp_path):
        config = preset_config("fig3")
        config.output_directory = str(tmp_path)
        manifest = run(config)
        emit_plot_data(manifest)
        lines = read(tmp_path / "plot_path_loss_vs_time.csv").splitlines()
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert min(xs) == 0.0
        assert max(xs) == pytest.approx(40.0, abs=1e-9)

    def test_empty_manifest_errors(self, tmp_path):
        manifest = RunManifest("d", "v", "relay_trace", str(tmp_path), [], [])
        with pytest.raises(ConfigError):
            emit_plot_data(manifest)

    def test_missing_file_listed(self, tmp_path):
        manifest = RunManifest("d", "v", "relay_trace", str(tmp_path),
                               [], ["gone.csv"])
        with pytest.raises(ConfigError, match="gone.csv"):
            emit_plot_data(manifest)


class TestCli:
    def test_cnpc_warning_printed_once(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "channel_probe",
                                   "params": {"carrier_frequency_hz": 970e6}}))
        code = main(["channel", "probe", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "CNPC" in warnings[0]

    @pytest.mark.parametrize("name,value", [
        ("altitude_step_m", 0), ("altitude_step_m", -1.0),
        ("altitude_step_m", "NaN"), ("altitude_step_m", "Infinity"),
        ("altitude_max_m", "Infinity"), ("altitude_min_m", "NaN"),
        ("altitude_max_m", "NaN"),
        # More than 10**6 altitudes: a step of the smallest subnormal, and a
        # step that no longer advances the running sum at 1e17 m.  Each
        # value is then the params object.
        pytest.param("altitude_step_m", {"altitude_step_m": 5e-324},
                     id="altitude_step_m-5e-324"),
        pytest.param("altitude_step_m", {"altitude_min_m": 1e17,
                                         "altitude_max_m": 1e17,
                                         "altitude_step_m": 1.0},
                     id="stalled-1e17")])
    def test_bad_altitude_grid_is_config_error(self, tmp_path, capsys, name,
                                               value):
        # Each would hang the grid walk, skip it or exceed its bound;
        # non-finite values arrive as JSON's NaN and Infinity literals.
        params = json.dumps(value) if isinstance(value, dict) \
            else f'{{"{name}": {value}}}'
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"preset": "urban_coverage", "params": {params}}}')
        code = main(["coverage", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert name in err
        if isinstance(value, dict):
            assert "more than 1000000 altitudes" in err
        assert not (tmp_path / "out").exists()

    def test_relay_trace_preset(self, tmp_path, capsys):
        code = main(["relay", "trace", "--preset", "fig3",
                     "--out", str(tmp_path), "--time-step", "0.1"])
        assert code == 0
        assert (tmp_path / "trace_static.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["relay", "trace", "--config", str(bad)])
        assert code == 2

    def test_scenario_mismatch_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "fig4"}))
        code = main(["relay", "trace", "--config", str(cfg)])
        assert code == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UAVSIM_OUT", str(tmp_path / "envout"))
        code = main(["channel", "probe"])
        assert code == 0
        assert (tmp_path / "envout" / "probe.csv").exists()

    def test_empty_out_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["channel", "probe", "--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_empty_env_var_counts_as_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("UAVSIM_OUT", "")
        assert main(["channel", "probe"]) == 0
        assert (tmp_path / "out" / "probe.csv").exists()

    def test_plot_subcommand(self, tmp_path):
        assert main(["relay", "sweep", "--preset", "fig4",
                     "--out", str(tmp_path), "--time-step", "0.05"]) == 0
        assert main(["plot", "--manifest",
                     str(tmp_path / "manifest.json")]) == 0
        assert (tmp_path / "plot_se_vs_delay.csv").exists()

    def test_plot_from_another_directory(self, tmp_path, monkeypatch,
                                         capsys):
        # The manifest records the run's relative output directory; plot
        # reads the outputs next to the manifest, wherever it runs from.
        monkeypatch.chdir(tmp_path)
        assert main(["relay", "sweep", "--out", "res/fig4",
                     "--time-step", "0.05"]) == 0
        (tmp_path / "other").mkdir()
        monkeypatch.chdir(tmp_path / "other")
        capsys.readouterr()
        assert main(["plot", "--manifest", "../res/fig4/manifest.json"]) == 0
        assert capsys.readouterr().out.split() == [
            str(Path("../res/fig4/plot_se_vs_delay.csv"))]
        assert (tmp_path / "res" / "fig4" / "plot_se_vs_delay.csv").exists()
        assert not list((tmp_path / "other").iterdir())

    def test_coverage_subcommand(self, tmp_path):
        code = main(["coverage", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "coverage.csv").exists()

    @pytest.mark.parametrize("params", [
        {},
        # Every radius is the same unbounded bracket, 2**30 m: the optimum
        # is the first row.
        {"altitude_min_m": 0.25, "altitude_max_m": 1.0,
         "altitude_step_m": 0.25, "max_path_loss_db": 300.0}],
        ids=["urban_coverage", "tied_radii"])
    def test_manifest_optimum_is_first_largest_radius(self, tmp_path, params):
        code, lines, out = run_cli({"preset": "urban_coverage",
                                    "params": params}, tmp_path)
        assert (code, lines) == (0, [])
        rows = [tuple(map(float, line.split(","))) for line in
                read(out / "coverage.csv").splitlines()[1:]]
        largest = max(radius for _, radius in rows)
        first = next(row for row in rows if row[1] == largest)
        series = RunManifest.load(out / "manifest.json").series
        assert (series["coverage.csv"]["optimal_altitude_m"],
                series["coverage.csv"]["optimal_radius_m"]) == first
        if params:
            assert {radius for _, radius in rows} == {2.0 ** 30}
            assert first == rows[0]

    def test_integer_altitudes_write_float_rows(self, tmp_path):
        # The altitude grid is one float array, so altitudes given as JSON
        # integers write the rows of their float twin ("10.0", not "10").
        grid = {"altitude_min_m": 10, "altitude_max_m": 40,
                "altitude_step_m": 10}
        texts = []
        for name, params in [("ints", grid), ("floats", {
                key: float(value) for key, value in grid.items()})]:
            (tmp_path / name).mkdir()
            code, lines, out = run_cli({"preset": "urban_coverage",
                                        "params": params}, tmp_path / name)
            assert (code, lines) == (0, [])
            texts.append(read(out / "coverage.csv"))
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[1].startswith("10.0,")

    def test_disseminate_seeded(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "dissem20",
                                   "params": {"n_seeds": 2}}))
        code = main(["disseminate", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()


# Every value here is wrong for every config field: each field is a
# number, an integer, a string or a non-empty list of those.
BAD_VALUES = ["abc", None, True, [], {}, math.nan, math.inf, -math.inf]


@st.composite
def malformed_configs(draw):
    """A preset written as a full config with one field broken: deleted,
    misspelt, or set (or one list element set) to a bad value."""
    preset = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
    config = {"scenario": preset["scenario"],
              "params": copy.deepcopy(preset["params"]),
              "time_step": 0.01, "master_seed": 0}
    params = config["params"]
    name = draw(st.sampled_from(sorted(params) + ["time_step", "master_seed"]))
    holder = params if name in params else config
    # time_step and master_seed have defaults, so deleting them is valid.
    actions = ["misspell", "set"] + (["delete"] if holder is params else [])
    action = draw(st.sampled_from(actions))
    value = draw(st.sampled_from(BAD_VALUES))
    if action == "delete":
        del holder[name]
    elif action == "misspell":
        holder[draw(st.sampled_from([name[:-1], name + "_", name.upper()]))] \
            = holder.pop(name)
    elif isinstance(holder[name], list) and draw(st.booleans()):
        holder[name][draw(st.integers(0, len(holder[name]) - 1))] = value
    else:
        holder[name] = value
    return config


class TestMalformedConfigs:
    @settings(max_examples=150, deadline=None)
    @given(malformed_configs())
    def test_exit_2_one_line_nothing_written(self, config):
        with tempfile.TemporaryDirectory() as directory:
            assert_config_error(*run_cli(config, Path(directory)))

    @pytest.mark.parametrize("preset,params,top,flags", [
        ("fig3", {"separation_m": -1}, {}, []),
        ("urban_coverage", {"s_curve_a": -1}, {}, []),
        ("fig4", {"strategies": ["warp"]}, {}, []),
        ("fig3", {}, {"time_step": "0.01"}, []),
        ("fig3", {"delay_budget_s": math.nan}, {}, []),
        ("fig3", {}, {"time_step": 0.03}, []),
        ("dissem20", {"node_count": 0}, {}, []),
        ("dissem20", {"slot_duration_s": 0}, {}, []),
        ("dissem20", {"d2d_range_m": "abc"}, {}, []),
        ("dissem20", {"n_seeds": 2.5}, {}, []),
        ("dissem20", {"uav_speed_mps": -1}, {}, []),
        ("fig4", {"delays_s": [5, "x"]}, {}, []),
        ("channel_probe", {"reference_distance_m": 1}, {}, []),
        ("channel_probe", {"ground_ranges_m": [-5]}, {}, []),
        ("dissem20", {}, {"master_seed": -5}, []),
        ("dissem20", {}, {"master_seed": 2 ** 64}, []),
        ("dissem20", {}, {}, ["--seed", "-5"]),
        ("fig3", {}, {}, ["--time-step", "0.03"]),
        # Runs too large to hold or to finish: more than 10**6 altitudes,
        # a step that no longer advances the altitude, more than 10**7
        # samples in a relay cycle.
        ("urban_coverage", {"altitude_max_m": 1e300}, {}, []),
        ("urban_coverage", {"altitude_step_m": 1e-3}, {}, []),
        ("urban_coverage", {"altitude_min_m": 1e6, "altitude_max_m": 1e6 + 1,
                            "altitude_step_m": 1e-12}, {}, []),
        ("fig3", {"delay_budget_s": 1e9}, {}, []),
        ("fig3", {"delay_budget_s": 50000.5}, {}, []),
        ("fig4", {"delays_s": [5.0, 1e6]}, {}, []),
        ("fig4", {}, {}, ["--time-step", "1e-5"]),
        # More than 10**7 cells in a dissemination seed's D2D adjacency or
        # coverage mask: many nodes, short slots, or a long flight.
        ("dissem20", {"node_count": 200000}, {}, []),
        ("dissem20", {"slot_duration_s": 1e-9}, {}, []),
        ("dissem20", {"field_length_m": 1e12}, {}, []),
        # exp(a * b) in the LoS sigmoid overflows at elevation 0.
        ("urban_coverage", {"s_curve_a": 50, "s_curve_b": 15}, {}, []),
        # Without --out, an empty path would write into the current directory.
        ("fig4", {}, {"output_directory": ""}, []),
        # 4*pi*d*f overflows in the path loss of the SNR anchor.
        ("fig3", {"carrier_frequency_hz": 1e307}, {}, []),
        ("fig4", {"carrier_frequency_hz": 1e307}, {}, []),
        ("channel_probe", {"carrier_frequency_hz": 1e307}, {}, []),
        # a * b overflows to inf, where exp() raises nothing.
        ("urban_coverage", {"s_curve_b": 1.7e308}, {}, []),
        # One seed's (nodes, packets) matrix of 2 * 10**10 cells.
        ("dissem20", {"source_packet_count": 10 ** 9}, {}, []),
    ])
    def test_out_of_range(self, tmp_path, preset, params, top, flags):
        config = {"preset": preset, "params": params, **top}
        assert_config_error(*run_cli(config, tmp_path, *flags))

    @pytest.mark.parametrize("preset,params,field", [
        ("channel_probe", {"ground_ranges_m": [0.0, -5.0]}, "ground_ranges_m"),
        ("channel_probe", {"reference_distance_m": 1}, "reference_distance_m"),
        ("channel_probe", {"relative_speed_mps": -1.0}, "relative_speed_mps"),
        ("fig3", {"speeds_mps": [10.0, -1.0]}, "speeds_mps"),
        ("fig3", {"delay_budget_s": 1e9}, "delay_budget_s"),
        ("fig4", {"delays_s": [5.0, -5.0]}, "delays_s"),
        ("dissem20", {"coverage_radius_m": -1.0}, "coverage_radius_m"),
        ("dissem20", {"erasure_probability": 1.0}, "erasure_probability"),
        ("dissem20", {"source_packet_count": 0}, "source_packet_count"),
        ("urban_coverage", {"eta_los_db": -1.0}, "eta_los_db"),
        ("urban_coverage", {"eta_nlos_db": 0.5}, "eta_nlos_db"),
        # The reference distance is checked before the relative speed.
        ("channel_probe", {"reference_distance_m": 0,
                           "relative_speed_mps": -1}, "reference_distance_m"),
        ("urban_coverage", {"altitude_step_m": 1e-3}, "altitude_step_m"),
        ("urban_coverage", {"s_curve_b": -1}, "s_curve_b"),
        ("urban_coverage", {"s_curve_a": 50, "s_curve_b": 15}, "s_curve_a"),
        ("dissem20", {"node_count": 200000}, "node_count"),
        ("dissem20", {"slot_duration_s": 1e-9}, "slot_duration_s"),
        # Two speeds that would write, and list, one trace file twice.
        ("fig3", {"speeds_mps": [10, 10.0, 30]}, "speeds_mps"),
        ("fig3", {"speeds_mps": [30.0, 10.000001, 10.0]}, "speeds_mps"),
        # Two speeds that would share one series of the sweep's plot.
        ("fig4", {"speeds_mps": [10.0, 10.000001]}, "speeds_mps"),
        ("fig4", {"speeds_mps": [10, 30.0, 10.0],
                  "strategies": ["static", "ferry"]}, "speeds_mps"),
        # A repeated strategy or delay would write its sweep rows twice.
        ("fig4", {"strategies": ["static", "mobile", "mobile"],
                  "delays_s": [5.0, 10.0]}, "strategies"),
        ("fig4", {"delays_s": [5.0, 5]}, "delays_s"),
        # An unknown strategy, whose name could read as a message field.
        ("fig4", {"strategies": ["static", "warp"]}, "strategies"),
        ("fig4", {"strategies": ["{delays_s}"]}, "strategies"),
        ("fig3", {"carrier_frequency_hz": 1e307}, "carrier_frequency_hz"),
        ("fig4", {"carrier_frequency_hz": 1e307}, "carrier_frequency_hz"),
        ("channel_probe", {"carrier_frequency_hz": 1e307},
         "carrier_frequency_hz"),
        # The square of the SNR anchor's reference distance overflows; the
        # relay anchor's reference is the midpoint slant.
        ("channel_probe", {"reference_distance_m": 1e200},
         "reference_distance_m"),
        ("fig3", {"separation_m": 1e308}, "separation_m"),
        ("fig4", {"separation_m": 1e308}, "separation_m"),
        ("urban_coverage", {"s_curve_b": 1.7e308}, "s_curve_a"),
        ("dissem20", {"source_packet_count": 10 ** 9},
         "source_packet_count"),
        # 4*pi*d*f/c underflows to 0 in the path loss of the SNR anchor.
        ("fig3", {"carrier_frequency_hz": 5e-324}, "carrier_frequency_hz"),
        ("fig4", {"carrier_frequency_hz": 5e-324}, "carrier_frequency_hz"),
        ("channel_probe", {"carrier_frequency_hz": 5e-324},
         "carrier_frequency_hz"),
        # More seeds than MAX_SEEDS; 2**63 would never finish.
        ("dissem20", {"n_seeds": 10 ** 4 + 1}, "n_seeds"),
        ("dissem20", {"n_seeds": 2 ** 63}, "n_seeds"),
        # An integer outside the float range in a float field.
        ("fig3", {"uav_altitude_m": 10 ** 400}, "uav_altitude_m"),
        ("urban_coverage", {"s_curve_a": 10 ** 400}, "s_curve_a"),
        # 4*pi*d*f/c underflows to 0 at the lowest altitude's nadir, the
        # shortest coverage link; a steep sigmoid's LoS probability there
        # is exactly 1.
        ("urban_coverage", {"carrier_frequency_hz": 5e-324},
         "carrier_frequency_hz"),
        ("urban_coverage", {"s_curve_a": 40, "s_curve_b": 17,
                            "carrier_frequency_hz": 5e-324},
         "carrier_frequency_hz"),
        # Sample and slot counts past the largest float, bounded before
        # they are rounded: a subnormal speed's 0.1 s step underflows to 0,
        # and a huge coverage radius lengthens the flight past any float.
        ("fig3", {"delay_budget_s": 1e308}, "delay_budget_s"),
        ("fig4", {"delays_s": [1e308]}, "delays_s"),
        ("dissem20", {"uav_speed_mps": 5e-324}, "uav_speed_mps"),
        ("dissem20", {"coverage_radius_m": 1e308}, "coverage_radius_m"),
        ("dissem20", {"slot_duration_s": 5e-324}, "slot_duration_s"),
        # Cell counts past the largest float, formatted as inf.
        ("dissem20", {"node_count": 10 ** 400}, "node_count"),
        ("dissem20", {"source_packet_count": 10 ** 400},
         "source_packet_count"),
    ])
    def test_bound_error_names_config_field(self, tmp_path, preset, params,
                                            field):
        code, lines, out = run_cli({"preset": preset, "params": params},
                                   tmp_path)
        assert_config_error(code, lines, out)
        assert field in lines[0]

    @pytest.mark.parametrize("preset,params,line", [
        ("fig3", {"separation_m": -1},
         "relay_trace: separation_m must be > 0"),
        ("fig3", {"delay_budget_s": 1e9},
         "relay_trace: delay_budget_s 1000000000.0 at time_step 0.01 gives "
         "200000000001 samples per cycle, more than 10000000"),
        ("fig4", {"delays_s": [5.0, 1e9]},
         "relay_sweep: delays_s 1000000000.0 at time_step 0.01 gives "
         "200000000001 samples per cycle, more than 10000000"),
        ("fig4", {"separation_m": 1e308},
         "relay_sweep: separation_m too large: its square overflows"),
        ("channel_probe", {"reference_distance_m": 1},
         "channel_probe: reference_distance_m shorter than the endpoint "
         "height difference"),
        ("urban_coverage", {"altitude_step_m": 0.001},
         "coverage: more than 1000000 altitudes from 10.0 to 3000.0 in "
         "steps of altitude_step_m 0.001"),
        ("fig3", {"carrier_frequency_hz": 5e-324},
         "relay_trace: path loss at separation_m underflows at "
         "carrier_frequency_hz 4.94066e-324 Hz"),
        # The strategy and packet-count errors name the kernel parameters
        # strategies and k.
        ("fig4", {"strategies": ["warp"]},
         "relay_sweep: strategies: 'warp' is not static, mobile or ferry"),
        ("dissem20", {"source_packet_count": 0},
         "disseminate: source_packet_count must be > 0")])
    def test_library_error_line_in_config_fields(self, tmp_path, preset,
                                                 params, line):
        # A kernel's error, rendered with the config's field names.
        code, lines, out = run_cli({"preset": preset, "params": params},
                                   tmp_path)
        assert_config_error(code, lines, out)
        assert lines == [f"config error: {line}"]

    def test_huge_dissemination_field_is_a_short_line(self, tmp_path):
        # Its slot and cell counts used to print as 300-digit integers, in
        # a line of 795 bytes.
        code, lines, out = run_cli({"preset": "dissem20", "params": {
            "field_length_m": 1e308}}, tmp_path)
        assert_config_error(code, lines, out)
        assert "field_length_m" in lines[0]
        assert len(lines[0].encode()) <= 250

    @pytest.mark.parametrize("preset,params,field", [
        # The linear value of the peak SNR overflows, and the run wrote nan
        # SE rows.
        ("fig4", {"reference_snr_db": 4000}, "reference_snr_db"),
        ("fig4", {"reference_snr_db": 3070}, "reference_snr_db"),
        ("fig3", {"uav_altitude_m": 1e-300}, "reference_snr_db"),
        ("channel_probe", {"reference_snr_db": 1e6}, "reference_snr_db"),
        # Overflows in values that no output takes: the outputs are right.
        # A ferry's flight legs overflowed where it hovers, when every leg
        # was evaluated at every sample.
        ("fig3", {"speeds_mps": [1.7e308]}, None),
        ("fig4", {"speeds_mps": [1.7e308]}, None),
        ("fig4", {"strategies": ["ferry"], "speeds_mps": [1e308]}, None),
        ("dissem20", {"uav_altitude_m": 1e200, "n_seeds": 2}, None),
        # 4*pi*d*f/c underflows to 0 in the SNR anchor's path loss.
        ("fig3", {"carrier_frequency_hz": 5e-324}, "carrier_frequency_hz"),
        ("fig4", {"carrier_frequency_hz": 5e-324}, "carrier_frequency_hz"),
        ("channel_probe", {"carrier_frequency_hz": 5e-324},
         "carrier_frequency_hz"),
        # 4*pi*d*f overflows at every coverage link, and a steep sigmoid
        # weights that inf by a LoS probability of exactly 1 or 0.
        ("urban_coverage", {"s_curve_a": 40, "s_curve_b": 17,
                            "carrier_frequency_hz": 1e307}, None),
    ], ids=["fig4_snr_4000", "fig4_snr_3070", "fig3_altitude_1e-300",
            "probe_snr_1e6", "fig3_speed_1.7e308", "fig4_speed_1.7e308",
            "fig4_ferry_speed_1e308", "dissem20_altitude_1e200",
            "fig3_carrier_5e-324", "fig4_carrier_5e-324",
            "probe_carrier_5e-324", "steep_coverage_carrier_1e307"])
    def test_overflow_is_config_error_or_silent(self, tmp_path, preset,
                                                params, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli({"preset": preset, "params": params}, tmp_path)
        if field:
            assert_config_error(*result)
            assert field in result[1][0]
        else:
            assert result[:2] == (0, [])

    def test_one_field_extremes(self, tmp_path):
        # Every numeric field of every preset, and the time step, set alone
        # to the smallest subnormal and to 1e308 (a list field to a list of
        # it): a run succeeds silently, or is one config error that names
        # a field of its scenario and writes nothing.
        failures, runs = [], 0
        for preset, spec in PRESETS.items():
            schema = spec["params"]
            keys = [*schema, *experiment._TOP_LEVEL]
            for name, example in [*schema.items(), ("time_step", 0.01)]:
                if isinstance(example, list):
                    example = example[0]
                if isinstance(example, str):
                    continue
                for value in (5e-324, 1e308):
                    runs += 1
                    if isinstance(schema.get(name), list):
                        value = [value]
                    config = ({"preset": preset, name: value}
                              if name in experiment._TOP_LEVEL
                              else {"preset": preset,
                                    "params": {name: value}})
                    directory = tmp_path / str(runs)
                    directory.mkdir()
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code, lines, out = run_cli(config, directory)
                    if (code, lines) == (0, []) or (
                            code == 2 and len(lines) == 1
                            and lines[0].startswith("config error:")
                            and any(key in lines[0] for key in keys)
                            and not out.exists()):
                        continue
                    failures.append((preset, name, value, code, lines))
        assert runs == 84
        assert failures == []

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_two_field_fuzz(self, preset, data):
        # Two fields of a preset set at once to drawn values, a list field
        # to several: a run succeeds with at most CNPC warnings, or is one
        # config error that names a field of its scenario and writes
        # nothing.  The size bounds are patched down, so a run is small.
        schema = PRESETS[preset]["params"]
        keys = [*schema, *experiment._TOP_LEVEL]
        names = data.draw(st.lists(st.sampled_from(
            [name for name in keys if name != "output_directory"]),
            min_size=2, max_size=2, unique=True))
        config = {"preset": preset}
        for name in names:
            value = data.draw(fuzz_values(
                schema.get(name, experiment._TOP_LEVEL.get(name))))
            if name in experiment._TOP_LEVEL:
                config[name] = value
            else:
                config.setdefault("params", {})[name] = value
        with contextlib.ExitStack() as stack:
            for module, name, bound in FUZZ_BOUNDS:
                stack.enter_context(mock.patch.object(module, name, bound))
            directory = stack.enter_context(tempfile.TemporaryDirectory())
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("error")
            code, lines, out = run_cli(config, Path(directory))
            if code == 0:
                assert all(line.startswith("warning: carrier")
                           for line in lines), (config, lines)
            else:
                assert (code, len(lines)) == (2, 1), (config, code, lines)
                assert lines[0].startswith("config error:"), (config, lines)
                assert any(key in lines[0] for key in keys), (config, lines)
                assert not out.exists(), config

    def test_overflowing_carrier_covers_nothing(self, tmp_path):
        # Coverage anchors no SNR: the path loss overflows to inf at every
        # range, so every radius is 0, and no warning is raised, also where
        # a steep sigmoid's LoS probability of 1 makes the mix nan.
        for name, sigmoid in (("default", {}),
                              ("steep", {"s_curve_a": 40, "s_curve_b": 17})):
            (tmp_path / name).mkdir()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, lines, out = run_cli({
                    "preset": "urban_coverage",
                    "params": {"carrier_frequency_hz": 1e307, **sigmoid}},
                    tmp_path / name)
            assert (code, lines) == (0, [])
            rows = read(out / "coverage.csv").splitlines()[1:]
            assert rows and all(row.endswith(",0.0") for row in rows)

    @pytest.mark.parametrize("preset,params,row", [
        # A flight of 5e11 steps of 0.1 s in one slot: nothing is sampled
        # along the flight, so only the coverage mask's cells are bounded.
        ("dissem20", {"field_length_m": 1e12, "slot_duration_s": 1e12},
         None),
        # An integer slot past int64: the slot starts are floats.
        ("dissem20", {"slot_duration_s": 2 ** 63}, None),
        # Excess losses of 1e15 dB, where rounding can lower the loss
        # farther out: the bisection needs no scan of the range.
        ("urban_coverage", {"eta_los_db": 1e15, "eta_nlos_db": 1e15,
                            "max_path_loss_db": 1e15 + 200.0,
                            "altitude_min_m": 100.0,
                            "altitude_max_m": 100.0},
         "100.0,120147096.77734375"),
    ], ids=["dissem20_one_slot", "dissem20_integer_slot",
            "coverage_1e15_db"])
    def test_extreme_valid_config_runs(self, tmp_path, preset, params, row):
        code, lines, out = run_cli({"preset": preset, "params": params},
                                   tmp_path)
        assert (code, lines) == (0, [])
        if row is None:
            full = {**PRESETS[preset]["params"], **params}
            assert _dissemination_scenario(full)[0].shape == (1, 20)
        else:
            assert read(out / "coverage.csv").splitlines()[1:] == [row]

    @pytest.mark.parametrize("command", [["relay", "sweep"], ["coverage"]])
    def test_scenario_contradicts_preset(self, tmp_path, command):
        # load_config used to drop the scenario: under relay sweep this ran
        # fig4, under coverage it failed naming only relay_sweep.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "fig4", "scenario": "coverage"}))
        out = tmp_path / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([*command, "--config", str(cfg), "--out", str(out)])
        lines = stderr.getvalue().splitlines()
        assert_config_error(code, lines, out)
        assert "'fig4'" in lines[0] and "'coverage'" in lines[0]
        cfg.write_text(json.dumps({"preset": "fig4",
                                   "scenario": "relay_sweep"}))
        assert load_config(cfg).scenario == "relay_sweep"

    def test_plot_malformed_csv(self, tmp_path):
        # A sweep row of 3 fields, as a hand-edited or truncated file has.
        out = tmp_path / "run"
        assert main(["relay", "sweep", "--out", str(out),
                     "--time-step", "0.05"]) == 0
        sweep = out / "sweep.csv"
        sweep.write_text(sweep.read_text() + "5.0,10.0,static\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["plot", "--manifest", str(out / "manifest.json")])
        assert code == 2
        assert stderr.getvalue().count("\n") == 1
        assert "sweep.csv" in stderr.getvalue()
        assert not (out / "plot_se_vs_delay.csv").exists()

    def test_infeasible_ferry_cells_are_rows(self, tmp_path):
        code, _, out = run_cli({"preset": "fig4", "params": {
            "strategies": ["static", "ferry"]}}, tmp_path)
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert sum(row.endswith(",ferry,,0") for row in rows) == 9

    @pytest.mark.parametrize("change", [
        {"series": []},
        {"series": {"trace_static.csv": "static"}},
        {"output_files": "trace_static.csv"},
        {"output_files": ["trace_static.csv", 5]},
        {"output_directory": 5},
        {"series": {"trace_static.csv": {"kind": "trace"}}},
        {"series": {"trace_static.csv": {"kind": "trace", "label": 5}}},
    ], ids=["series_list", "series_entry_str", "files_str", "file_int",
            "directory_int", "trace_no_label", "trace_label_int"])
    def test_plot_malformed_manifest(self, tmp_path, change):
        out = tmp_path / "run"
        assert main(["relay", "trace", "--out", str(out),
                     "--time-step", "0.05"]) == 0
        path = out / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    **change}))
        with pytest.raises(ConfigError, match="manifest"):
            RunManifest.load(path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["plot", "--manifest", str(path)])
        assert code == 2
        assert stderr.getvalue().count("\n") == 1
        assert not list(out.glob("plot_*"))

    def test_plot_malformed_trace_after_sweep_writes_nothing(self, tmp_path):
        # The sweep's plot used to be written before the trace was read.
        out = tmp_path / "run"
        assert main(["relay", "trace", "--out", str(out),
                     "--time-step", "0.05"]) == 0
        assert main(["relay", "sweep", "--out", str(out),
                     "--time-step", "0.05"]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        trace = "trace_mobile_v10.csv"
        manifest["output_files"] = ["sweep.csv", trace]
        manifest["series"][trace] = {"kind": "trace", "label": "mobile_v10"}
        path.write_text(json.dumps(manifest))
        lines = (out / trace).read_text().splitlines()
        lines[5] += ",0.0"
        (out / trace).write_text("\n".join(lines) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["plot", "--manifest", str(path)])
        assert code == 2
        assert stderr.getvalue().count("\n") == 1
        assert f"{trace}: line 6 has 6 fields, not 5" in stderr.getvalue()
        assert not list(out.glob("plot_*"))

    def test_plot_write_failure_is_one_line(self, tmp_path):
        assert main(["relay", "sweep", "--out", str(tmp_path),
                     "--time-step", "0.05"]) == 0
        (tmp_path / "plot_se_vs_delay.csv").mkdir()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["plot", "--manifest", str(tmp_path / "manifest.json")])
        assert code == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("run failed:"), lines

    def test_plot_bad_manifest(self, tmp_path):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["plot", "--manifest", str(tmp_path / "none.json")])
        assert code == 2
        assert stderr.getvalue().count("\n") == 1


# The uavsim modules, besides the package and ``experiment``, that loading
# each preset's config imports; its run imports no more.
SCENARIO_MODULES = {
    "fig3": {"_csvfile", "_numpy", "channel", "mobility", "relay"},
    "fig4": {"_csvfile", "_numpy", "channel", "mobility", "relay"},
    "dissem20": {"_csvfile", "_numpy", "mobility", "dissemination"},
    "urban_coverage": {"_csvfile", "_numpy", "channel", "coverage"},
    "channel_probe": {"_csvfile", "_numpy", "channel"},
}

# Helpers of the fresh-interpreter probes below.
PROBE_HELPERS = """
import json, os, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("uavsim."))

def blas_threads():
    # This process's thread count, where /proc tells it, and the values of
    # the variables named on the command line.
    try:
        with open("/proc/self/status") as status:
            threads = next(int(line.split()[1]) for line in status
                           if line.startswith("Threads:"))
    except OSError:
        threads = None
    return [threads, {name: os.environ.get(name) for name in sys.argv[2:]}]

def libcrypto_mapped():
    # Whether OpenSSL's libcrypto is mapped, where /proc tells it.
    try:
        with open("/proc/self/maps") as maps:
            return any("libcrypto" in line for line in maps)
    except OSError:
        return None
"""

STARTUP_PROBE = PROBE_HELPERS + """
import uavsim
bare = loaded()
from uavsim import experiment
config = experiment.load_config(sys.argv[1])
after_load, threads_load = loaded(), blas_threads()
experiment.run(config)
print(json.dumps({"bare": bare, "load": after_load, "run": loaded(),
                  "threads": [threads_load, blas_threads()],
                  "csv": "csv" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "_hashlib": "_hashlib" in sys.modules,
                  "libcrypto": libcrypto_mapped()}))
"""
# The variables OpenBLAS reads for the size of its thread pool, the first
# set one taking precedence.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


def numpy_loads_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


# The probe counts threads where /proc does, on a numpy built with OpenBLAS.
COUNTS_BLAS_THREADS = (Path("/proc/self/status").exists()
                       and numpy_loads_openblas())


def fresh_probe(probe, *args, **variables):
    """The JSON that ``probe`` prints, run with ``args`` in a fresh
    interpreter whose environment sets none of ``BLAS_THREAD_VARIABLES``
    but ``variables``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARIABLES}
    done = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                          env={**env, "PYTHONPATH": src, **variables},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def preset_file(tmp_path, preset, out="out"):
    """A config file that runs ``preset`` into ``tmp_path / out``."""
    cfg = tmp_path / f"{out}.json"
    cfg.write_text(json.dumps({"preset": preset,
                               "output_directory": str(tmp_path / out)}))
    return cfg


def startup_probe(tmp_path, preset, **variables):
    """STARTUP_PROBE's report on a run of ``preset`` in a fresh interpreter
    whose environment sets none of ``BLAS_THREAD_VARIABLES`` but
    ``variables``."""
    return fresh_probe(STARTUP_PROBE, preset_file(tmp_path, preset),
                       *BLAS_THREAD_VARIABLES, **variables)


@pytest.mark.parametrize("preset", sorted(SCENARIO_MODULES))
def test_startup_loads_only_the_scenario_modules(tmp_path, preset):
    """In a fresh interpreter: ``import uavsim`` loads no submodule, and
    ``load_config`` loads exactly the preset's scenario modules, which
    ``run`` then needs no addition to; ``csv`` is left unloaded, and so
    is ``numpy.ma``, which plain ``np.unique`` imports (about 2.7 MB), and
    ``_hashlib``, which maps OpenSSL's libcrypto (about 3.6 MB), even by
    ``dissem20``, which imports ``numpy.random``.  numpy's OpenBLAS starts
    no worker thread, and no thread variable is left set."""
    loaded = startup_probe(tmp_path, preset)
    assert loaded["bare"] == []
    assert loaded["load"] == sorted(
        f"uavsim.{name}" for name in SCENARIO_MODULES[preset] | {"experiment"})
    assert loaded["run"] == loaded["load"]
    assert not loaded["csv"]
    assert not loaded["numpy.ma"]
    assert not loaded["_hashlib"]
    assert not loaded["libcrypto"]  # None: /proc/self/maps is unreadable
    unset = dict.fromkeys(BLAS_THREAD_VARIABLES)
    assert [variables for _, variables in loaded["threads"]] == [unset, unset]
    if COUNTS_BLAS_THREADS:
        assert [threads for threads, _ in loaded["threads"]] == [1, 1]


@pytest.mark.skipif(
    not COUNTS_BLAS_THREADS or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/status, numpy's OpenBLAS and two CPUs, the "
           "fewest on which OpenBLAS starts a worker")
@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_startup_keeps_the_callers_blas_thread_count(tmp_path, name):
    # The caller's variable stays as it is, and OpenBLAS reads it: its pool
    # of two threads starts with numpy.
    loaded = startup_probe(tmp_path, "channel_probe", **{name: "2"})
    variables = {**dict.fromkeys(BLAS_THREAD_VARIABLES), name: "2"}
    assert loaded["threads"] == [[2, variables], [2, variables]]


IMPORT_PROBE = PROBE_HELPERS + """
import importlib
importlib.import_module(sys.argv[1])
print(json.dumps(blas_threads()))
"""
LIBRARY_MODULES = sorted(
    path.stem for path in Path(experiment.__file__).parent.glob("*.py")
    if path.stem != "__init__")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_importing_any_module_first_starts_no_blas_worker(name):
    # Every module gets numpy from uavsim._numpy, so a library user who
    # imports it before ``experiment`` also loads numpy with one thread.
    threads, variables = fresh_probe(IMPORT_PROBE, f"uavsim.{name}",
                                     *BLAS_THREAD_VARIABLES)
    assert variables == dict.fromkeys(BLAS_THREAD_VARIABLES)
    if COUNTS_BLAS_THREADS:
        assert threads == 1


# argv[1]: a config to run first, or "-" for none; argv[2]: "hashlib" to
# import hashlib before uavsim.
HASHLIB_PROBE = PROBE_HELPERS + """
if sys.argv[2] == "hashlib":
    import hashlib
if sys.argv[1] != "-":
    from uavsim import experiment
    experiment.run(experiment.load_config(sys.argv[1]))
import hashlib, hmac, secrets
print(json.dumps({"hmac_openssl": hmac._hashopenssl is not None,
                  "algorithms": sorted(hashlib.algorithms_available),
                  "sha256": hashlib.sha256(b"uavsim").hexdigest(),
                  "token_bytes": len(secrets.token_bytes(16)),
                  "libcrypto": libcrypto_mapped()}))
"""


def test_dissem20_leaves_hmac_and_hashlib_to_later_imports(tmp_path):
    """``dissem20`` imports ``numpy.random`` with ``_hashlib`` blocked; the
    ``hmac``, ``hashlib`` and ``secrets`` imported after the run are those
    of a fresh interpreter, OpenSSL-backed where ``_hashlib`` is
    importable.  A process that imported ``hashlib`` first, so that
    ``_hashlib`` was loaded and the block is skipped, writes the same
    CSV bytes."""
    fresh = fresh_probe(HASHLIB_PROBE, "-", "")
    after = fresh_probe(HASHLIB_PROBE, preset_file(tmp_path, "dissem20"), "")
    assert after == fresh
    assert fresh["hmac_openssl"] == (
        importlib.util.find_spec("_hashlib") is not None)
    assert fresh["token_bytes"] == 16
    fresh_probe(HASHLIB_PROBE, preset_file(tmp_path, "dissem20", "first"),
                "hashlib")
    written = sorted(path.name for path in (tmp_path / "out").glob("*.csv"))
    assert written == ["nodes.csv", "summary.csv"]
    for name in written:
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes())
