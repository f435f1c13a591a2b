"""The benchmark's workloads and the one way they are run.

Each workload is a shipped preset, run through ``uavsim.experiment.run``
from a JSON config file (the format the CLI reads).  The workload seed
becomes the config's ``master_seed``.  Only ``disseminate`` draws random
numbers; the other three produce the same CSV bodies for every seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    why: str
    params: dict = field(default_factory=dict)
    seeded: bool = False
    reference_seeds: tuple[int, ...] = (0,)


WORKLOADS = {w.name: w for w in (
    Workload("relay_sweep", "fig4",
             "fig4 sweep: 30 cycles, 186k steps, 20 distinct; channel and "
             "relay per-step work and cycle dedupe"),
    Workload("relay_trace", "fig3",
             "fig3 traces: 4 distinct cycles whose every sample is kept and "
             "written (1.3 MB CSV); trace output and the CSV writer"),
    Workload("disseminate", "dissem20",
             "dissem20: 50 seeded coded-vs-baseline pairs; dissemination and "
             "trajectories, no channel or relay calls",
             seeded=True, reference_seeds=(0, 7919)),
    Workload("coverage", "urban_coverage",
             "urban_coverage at a 1 m altitude step: 2,991 bisections; the "
             "only workload that measures coverage",
             params={"altitude_step_m": 1.0}),
)}


def source_present() -> bool:
    return (SOURCE / "uavsim" / "__init__.py").is_file()


def import_experiment():
    """Import ``uavsim.experiment`` from this checkout's ``src``."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    from uavsim import experiment
    return experiment


def write_config(workload: Workload, seed: int, directory: Path) -> Path:
    path = directory / f"{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"preset": workload.preset,
                                "params": workload.params,
                                "master_seed": seed}))
    return path


def run(experiment, config_path: Path, out: Path) -> None:
    """One full workload run: build and validate the config, then write
    the CSVs and manifest to ``out``, which must not exist yet."""
    config = experiment.load_config(config_path)
    config.output_directory = str(out)
    experiment.run(config)


def read_outputs(directory: Path) -> dict[str, bytes]:
    """The CSV bodies a run wrote, by file name."""
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}
