"""Golden outputs: the SHA-256 of every preset's CSV bodies.

``golden/csv_sha256.json`` maps ``<case>/seed-<master seed>/<file>`` to
the digest of that file as written by ``experiment.run``, where a case is
a preset or one of ``VARIANTS``, a preset with some params changed.  A
change that alters any digest must say so, with the largest absolute and
relative difference it measured, and record the new digests here.  The
float columns of the relay presets are the output of numpy's
transcendental functions, and the coverage radii are decided by
comparisons of numpy's expected loss with the threshold, so a different
numpy build or CPU may change the relay floats' last bits and move a
radius whose comparison is a near tie.
"""

import hashlib
import json
from pathlib import Path

import pytest

from uavsim.experiment import preset_config, run

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "csv_sha256.json").read_text())
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


@pytest.mark.parametrize("case,seed", CASES)
def test_csv_bodies_match_golden_digests(tmp_path, case, seed):
    preset, params = VARIANTS.get(case, (case, {}))
    config = preset_config(preset)
    config.params.update(params)
    config.master_seed = int(seed.removeprefix("seed-"))
    config.output_directory = str(tmp_path)
    manifest = run(config)
    digests = {f"{case}/{seed}/{name}":
               hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in manifest.output_files}
    assert digests == {key: value for key, value in GOLDEN.items()
                       if key.startswith(f"{case}/{seed}/")}
