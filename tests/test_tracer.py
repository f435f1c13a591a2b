"""The benchmark's per-layer tracer over in-process preset runs.

``perfbench/tracer.py`` wraps the library's public callables, and its
relay hook reads ``relay.simulate_cycle``'s ``strategy`` and ``geom``
arguments and the result's ``se_trace``.  A traced run must write the
bytes of an untraced one and count the relay work that the benchmark's
``--trace 1`` reports, so renaming what the hook reads fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from uavsim import experiment

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    """``perfbench/tracer.py``'s ``Tracer``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def outputs(preset, directory, tracer=None):
    """Every file a run of ``preset`` writes into ``directory``, by name,
    the manifest as its fields less the directory; traced by ``tracer``
    where given."""
    config = experiment.preset_config(preset)
    config.output_directory = str(directory)
    if tracer is None:
        experiment.run(config)
    else:
        with tracer.installed():
            # Looked up in the module, where the tracer wraps it.
            experiment.run(config)
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["output_directory"]
    return files, manifest


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_traced_run_writes_the_untraced_bytes(preset, tmp_path):
    tracer = load_tracer()()
    plain = outputs(preset, tmp_path / "plain")
    assert outputs(preset, tmp_path / "traced", tracer) == plain
    assert tracer.calls["experiment.run"] == 1
    if preset == "fig3":
        # Static and three mobile traces of 4,001 samples each.
        assert len(tracer.distinct["relay.cycles"]) == 4
        assert tracer.tallies["relay.steps"] == 16_004
