"""uavsim benchmark: end-to-end run metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload relay_sweep --seed 0 --seconds 20
    python3 perfbench/run.py --workload all --seconds 20 --trace 1

Run from any directory; the benchmark imports uavsim from the ``src``
directory of the checkout that holds it and writes only under
``.bench_work/`` there.  One process, no extra threads: load is a closed
loop of back-to-back runs of one workload.  Child processes (for
``setup_s`` and ``peak_rss_mb``) run one at a time.

With ``--trace 0`` it reports the end-to-end metrics:

- ``run_s``: median wall time of one full run (config, CSVs and manifest
  into a fresh directory) after a warm-up run, over as many runs as fit
  in ``--seconds`` and at least three, each rescaled to the reference
  speed of ``speed.py`` by the calibration loop sampled during it;
- ``setup_s``: median, over 21 fresh interpreters started at even
  intervals between the timed runs, of the time to import uavsim and
  build and validate the workload config, rescaled by the calibration
  loop timed right before and right after each;
- ``peak_rss_mb``: peak resident set of one child doing setup and one
  run (see ``child.py``).

With ``--trace 1`` it alternates untraced and traced runs and reports
the per-layer metrics of ``PER_LAYER`` (medians over the traced runs),
then writes the spans and counts of the last traced run to
``.bench_work/trace-<workload>-seed<n>.json``.

Every run's CSV bodies are checked against the stored reference (or,
for a seed without one, against the first run's bodies byte for byte).
A traced run must also write exactly the untraced run's bytes and
repeat its counts exactly.  A run that raises or fails a check counts in
``failed``; the summary line prints ``error_rate`` = failed/attempted.
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import reference
import speed
import workloads
from tracer import TRAJECTORY_FUNCTIONS, Tracer

SETUP_SAMPLES = 21
CHILD_CALIBRATIONS = 10
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60
CHILD = Path(__file__).resolve().parent / "child.py"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "experiment.config_s": "s",
    "experiment.self_s": "s",
    "experiment.busy_s": "s",
    "experiment.output_bytes": "bytes",
    "mobility.trajectory_calls": "count",
    "mobility.trajectory_distinct": "count",
    "mobility.states_built": "count",
    "mobility.trajectory_s": "s",
    "mobility.position_at_calls": "count",
    "mobility.position_at_s": "s",
    "mobility.self_s": "s",
    "mobility.busy_s": "s",
    "channel.path_loss_calls": "count",
    "channel.snr_calls": "count",
    "channel.se_calls": "count",
    "channel.geometry_builds": "count",
    "channel.self_s": "s",
    "channel.busy_s": "s",
    "relay.cycles": "count",
    "relay.cycles_distinct": "count",
    "relay.steps": "count",
    "relay.path_loss_trace_calls": "count",
    "relay.self_s": "s",
    "relay.busy_s": "s",
    "dissemination.graph_s": "s",
    "dissemination.phase1_s": "s",
    "dissemination.gossip_s": "s",
    "dissemination.baseline_s": "s",
    "dissemination.gossip_rounds": "count",
    "dissemination.baseline_passes": "count",
    "dissemination.uav_transmissions": "count",
    "dissemination.self_s": "s",
    "dissemination.busy_s": "s",
    "coverage.radius_calls": "count",
    "coverage.loss_evals": "count",
    "coverage.self_s": "s",
    "coverage.busy_s": "s",
    "trace.overhead_s": "s",
}


class Checker:
    """Counts attempted runs and those whose outputs fail a check."""

    def __init__(self, expected: dict[str, bytes] | None):
        # Without a stored reference the first run's bodies become it,
        # and later runs must repeat them byte for byte.
        self.expected = expected
        self.exact = expected is None
        self.attempted = 0
        self.failed = 0

    def record(self, bodies: dict[str, bytes] | None,
               problems: list[str] = ()) -> None:
        self.attempted += 1
        problems = list(problems)
        if bodies is None:
            problems.append("run raised")
        elif self.expected is None:
            self.expected = bodies
        elif self.exact:
            if bodies != self.expected:
                problems.append("CSV bodies differ from the first run's")
        else:
            problems += reference.compare(self.expected, bodies)
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)


def timed_run(experiment, config_path: Path, out: Path,
              sampler=contextlib.nullcontext()):
    """(wall seconds, CSV bodies or None if the run raised) of one run,
    timed inside ``sampler``."""
    gc.collect()
    with sampler:
        start = perf_counter()
        try:
            workloads.run(experiment, config_path, out)
        except Exception:  # a failed run is counted, not fatal
            raised = True
            traceback.print_exc()
        else:
            raised = False
        elapsed = perf_counter() - start
    bodies = None if raised else workloads.read_outputs(out)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, bodies


def child(*args: str) -> str:
    """Run child.py to completion and return its last output line."""
    done = subprocess.run([sys.executable, str(CHILD), *args],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def end_to_end(workload, seed, seconds, scratch, checker, experiment,
               config_path) -> dict[str, float]:
    rss_out = scratch / "rss"
    rss_kb = int(child("rss", str(config_path), str(rss_out)))
    checker.record(workloads.read_outputs(rss_out))
    shutil.rmtree(rss_out, ignore_errors=True)

    checker.record(timed_run(experiment, config_path, scratch / "warm")[1])
    times, scaled, setup = [], [], []
    start = perf_counter()
    while (len(times) < MIN_RUNS or len(setup) < SETUP_SAMPLES
           or perf_counter() - start < seconds):
        # Setup samples are spread over the same window as the runs, so
        # both see the machine in the same state.  A child cannot be
        # sampled from inside, so the calibration loop is timed
        # CHILD_CALIBRATIONS times right before and right after it.
        while (len(setup) < SETUP_SAMPLES and perf_counter() - start
               >= len(setup) * seconds / SETUP_SAMPLES):
            calibrations = [speed.calibrate()
                            for _ in range(CHILD_CALIBRATIONS)]
            elapsed = float(child("setup", str(config_path)))
            calibrations += [speed.calibrate()
                             for _ in range(CHILD_CALIBRATIONS)]
            setup.append(speed.scaled(elapsed, calibrations))
        sampler = speed.Sampler()
        elapsed, bodies = timed_run(experiment, config_path,
                                    scratch / f"run-{len(times)}", sampler)
        checker.record(bodies)
        times.append(elapsed)
        scaled.append(sampler.seconds(elapsed))
    q1, _, q3 = statistics.quantiles(scaled, n=4)
    print(f"{workload.name} seed {seed}: run_s median "
          f"{statistics.median(scaled):.4f} s, quartiles {q1:.4f}-{q3:.4f} s "
          f"over {len(times)} runs at reference speed (wall median "
          f"{statistics.median(times):.4f} s); setup_s median "
          f"{statistics.median(setup):.4f} s over {len(setup)} "
          f"interpreters; peak_rss_mb {rss_kb / 1024:.1f} MB")
    return {"run_s": statistics.median(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    calls, seconds = tracer.calls, tracer.seconds
    metrics = {f"{layer}.{kind}": table[layer]
               for layer in ("experiment", "mobility", "channel", "relay",
                             "dissemination", "coverage")
               for kind, table in (("self_s", tracer.self_s),
                                   ("busy_s", tracer.busy_s))}
    metrics.update({
        "experiment.config_s": seconds["experiment.load_config"],
        "mobility.trajectory_calls": sum(calls[n]
                                         for n in TRAJECTORY_FUNCTIONS),
        "mobility.trajectory_distinct":
            len(tracer.distinct["mobility.trajectories"]),
        "mobility.states_built": calls["mobility.UavState.__init__"],
        "mobility.trajectory_s": sum(seconds[n]
                                     for n in TRAJECTORY_FUNCTIONS),
        "mobility.position_at_calls": calls["mobility.Trajectory.position_at"],
        "mobility.position_at_s": seconds["mobility.Trajectory.position_at"],
        "channel.path_loss_calls": calls["channel.free_space_path_loss"]
                                   + calls["channel.two_ray_path_loss"],
        "channel.snr_calls": calls["channel.snr_at"],
        "channel.se_calls": calls["channel.spectral_efficiency"],
        "channel.geometry_builds": calls["channel.LinkGeometry.__init__"],
        "relay.cycles": calls["relay.simulate_cycle"],
        "relay.cycles_distinct": len(tracer.distinct["relay.cycles"]),
        "relay.steps": tracer.tallies["relay.steps"],
        "relay.path_loss_trace_calls": calls["relay.path_loss_trace"],
        "dissemination.graph_s": seconds["dissemination.D2dGraph.__init__"],
        "dissemination.phase1_s": seconds["dissemination.phase1_broadcast"],
        "dissemination.gossip_s": seconds["dissemination.phase2_exchange"],
        "dissemination.baseline_s": seconds["dissemination.run_baseline"],
        "coverage.radius_calls": calls["coverage.coverage_radius"],
        "coverage.loss_evals": calls["coverage.expected_path_loss"],
    })
    for name in ("dissemination.gossip_rounds",
                 "dissemination.baseline_passes",
                 "dissemination.uav_transmissions"):
        metrics[name] = tracer.tallies[name]
    return metrics


def write_trace(path: Path, workload, seed, tracer: Tracer,
                traced_runs: int) -> None:
    origin = min((span[2] for span in tracer.spans), default=0.0)
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "traced_runs": traced_runs,
        "counts": tracer.counts(),
        "seconds": dict(sorted(tracer.seconds.items())),
        "self_s": dict(sorted(tracer.self_s.items())),
        "busy_s": dict(sorted(tracer.busy_s.items())),
        "spans": [{"id": i, "name": name, "start": start - origin,
                   "end": end - origin, "parent": parent}
                  for i, name, start, end, parent in sorted(tracer.spans)],
    }, indent=1) + "\n")


def per_layer(workload, seed, seconds, scratch, checker, experiment,
              config_path) -> dict[str, float]:
    checker.record(timed_run(experiment, config_path, scratch / "warm")[1])
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        elapsed, bodies = timed_run(experiment, config_path,
                                    scratch / f"plain-{len(plain)}")
        checker.record(bodies)
        plain.append(elapsed)
        tracer = Tracer()
        with tracer.installed():
            elapsed, traced_bodies = timed_run(experiment, config_path,
                                               scratch / f"traced-{len(traced)}")
        problems = []
        if traced_bodies != bodies:
            problems.append("traced CSV bodies differ from the untraced run's")
        if tracers and tracer.counts() != tracers[0].counts():
            problems.append("traced counts differ from the first traced run's")
        checker.record(traced_bodies, problems)
        traced.append(elapsed)
        tracers.append(tracer)
    # Counts repeat exactly (checked above); times are medians.
    samples = [layer_metrics(t) for t in tracers]
    metrics = {name: (statistics.median(s[name] for s in samples)
                      if PER_LAYER[name] == "s" else samples[-1][name])
               for name in samples[0]}
    metrics["experiment.output_bytes"] = sum(
        map(len, (traced_bodies or {}).values()))
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    path = workloads.WORK / f"trace-{workload.name}-seed{seed}.json"
    write_trace(path, workload, seed, tracers[-1], len(tracers))
    print(f"{workload.name} seed {seed}: {len(traced)} traced and "
          f"{len(plain)} untraced runs; trace written to {path}")
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result object."""
    workloads.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=workloads.WORK))
    try:
        experiment = workloads.import_experiment()
        config_path = workloads.write_config(workload, seed, scratch)
        ref = reference.reference_dir(workload.name, seed, workload.seeded)
        checker = Checker(reference.load(ref) if ref else None)
        values = (per_layer if trace else end_to_end)(
            workload, seed, seconds, scratch, checker, experiment,
            config_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        print(f"  {name} = {values[name]!r} {unit}")
    print(f"  error_rate = {checker.failed}/{checker.attempted} "
          f"failed/attempted"
          f" ({'reference' if not checker.exact else 'rerun'} check)")
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not workloads.source_present():
        print(f"no uavsim sources under {workloads.SOURCE}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {name: measure(workloads.WORKLOADS[name], args.seed,
                             args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
