"""Golden outputs: the SHA-256 of every preset's CSV bodies.

``golden/csv_sha256.json`` maps ``<preset>/seed-<master seed>/<file>`` to
the digest of that file as written by ``experiment.run``.  A change that
alters any digest must say so, with the largest absolute and relative
difference it measured, and record the new digests here.  The float
columns of the relay presets are the output of numpy's transcendental
functions, so a different numpy build or CPU may change their last bits.
"""

import hashlib
import json
from pathlib import Path

import pytest

from uavsim.experiment import preset_config, run

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "csv_sha256.json").read_text())
CASES = sorted({tuple(key.split("/")[:2]) for key in GOLDEN})


@pytest.mark.parametrize("preset,seed", CASES)
def test_csv_bodies_match_golden_digests(tmp_path, preset, seed):
    config = preset_config(preset)
    config.master_seed = int(seed.removeprefix("seed-"))
    config.output_directory = str(tmp_path)
    manifest = run(config)
    digests = {f"{preset}/{seed}/{name}":
               hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in manifest.output_files}
    assert digests == {key: value for key, value in GOLDEN.items()
                       if key.startswith(f"{preset}/{seed}/")}
