"""Golden outputs: the SHA-256 of every preset's CSV bodies.

``golden/csv_sha256.json`` maps ``<case>/seed-<master seed>/<file>`` to
the digest of that file as written by ``experiment.run``, or, for a relay
case, by ``emit_plot_data`` from that run; a case is a preset or one of
``VARIANTS``, a preset with some params changed.  A change that alters
any digest must say so, with the largest absolute and relative
difference it measured, and record the new digests here.  The float
columns of the relay presets are the output of numpy's transcendental
functions, and the coverage radii are decided by comparisons of numpy's
expected loss with the threshold, so a different numpy build or CPU may
change the relay floats' last bits and move a radius whose comparison is
a near tie.

numpy's AVX-512 loops (its ``X86_V4`` dispatch) round ``log10``, ``exp``
and ``power`` differently from its baseline loops, and the relay cases'
floats move between the two.  ``csv_sha256.json`` holds the digests on
the AVX-512 path; ``csv_sha256_baseline.json`` replaces the relay cases'
digests on any other path.  Setting ``NPY_DISABLE_CPU_FEATURES`` to
``BASELINE_DISPATCH`` selects the baseline loops on an AVX-512 host, and
``test_baseline_dispatch_digests`` reruns the relay cases with it, so that
both sets stay pinned there.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from uavsim.experiment import emit_plot_data, preset_config, run

GOLDEN_DIRECTORY = Path(__file__).parent / "golden"
AVX512 = __cpu_features__.get("X86_V4", False)
BASELINE_DISPATCH = "AVX512_SPR AVX512_ICL X86_V4"


def golden(name):
    return json.loads((GOLDEN_DIRECTORY / name).read_text())


GOLDEN = golden("csv_sha256.json")
if not AVX512:
    GOLDEN.update(golden("csv_sha256_baseline.json"))
CASES = sorted({tuple(key.split("/")[:2]) for key in GOLDEN})
VARIANTS = {
    # The coverage workload's 1 m grid: its radii come from a lockstep
    # array bisection whose comparisons numpy's expected loss decides, so
    # they may move on another numpy build, as the relay floats may.
    "urban_coverage_1m": ("urban_coverage", {"altitude_step_m": 1.0}),
    # Seeds that need from 0 to 50 gossip rounds, with 16 to 18 of the 18
    # D2D components stalled: node gaps of 1000/30 m differ in their last
    # bits, so a range of 100/3 m links some neighbours and not others.
    "dissem20_staggered": ("dissem20", {"node_count": 30,
                                        "d2d_range_m": 100 / 3,
                                        "erasure_probability": 0.6}),
    # 800 slots, so gossip pools pass 255 packets and the baseline window
    # needs uint16; about 170 gossip rounds.
    "dissem20_k300": ("dissem20", {"source_packet_count": 300,
                                   "slot_duration_s": 0.1, "n_seeds": 10}),
    # A link too weak for fixed notation: the trace writer's SE and buffer
    # columns print in exponent form (1.4426943194232382e-06).
    "fig3_low_snr": ("fig3", {"reference_snr_db": -60.0}),
    # fig4's grid with a ferry: infeasible cells (v*delta < R), a ferry
    # that never hovers (v*delta = R) and long hover runs, whose silent
    # samples and repeated links the sweep must keep.
    "fig4_ferry": ("fig4", {"strategies": ["static", "mobile", "ferry"]}),
}
RELAY_PRESETS = ("fig3", "fig4")


@pytest.mark.parametrize("case,seed", CASES)
def test_csv_bodies_match_golden_digests(tmp_path, case, seed):
    preset, params = VARIANTS.get(case, (case, {}))
    config = preset_config(preset)
    config.params.update(params)
    config.master_seed = int(seed.removeprefix("seed-"))
    config.output_directory = str(tmp_path)
    manifest = run(config)
    names = manifest.output_files
    if preset in RELAY_PRESETS:
        names = names + emit_plot_data(manifest)
    digests = {f"{case}/{seed}/{name}":
               hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in names}
    assert digests == {key: value for key, value in GOLDEN.items()
                       if key.startswith(f"{case}/{seed}/")}


@pytest.mark.skipif(not AVX512, reason="numpy runs its baseline loops here")
def test_baseline_dispatch_digests():
    """The relay cases, and the count of floats that ``fig3`` formats,
    rerun on numpy's baseline loops in a fresh interpreter."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BASELINE_DISPATCH}
    probe = ("from numpy._core._multiarray_umath import __cpu_features__; "
             "print(__cpu_features__['X86_V4'])")
    dispatch = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
    assert dispatch.stdout == "False\n", dispatch.stderr
    count = "TestRun::test_fig3_formats_a_float_the_previous_trace_had_once"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", " or ".join(RELAY_PRESETS), f"{tests / 'test_golden.py'}",
         f"{tests / 'test_experiment.py'}::{count}"],
        cwd=tests.parent, env=env, capture_output=True, text=True,
        timeout=600)
    relay_cases = sum(case.startswith(RELAY_PRESETS) for case, _ in CASES)
    assert done.returncode == 0, done.stdout
    assert f"{relay_cases + 1} passed" in done.stdout, done.stdout
