"""Stored reference CSV bodies and the comparison against them.

References live in ``references/<workload>/seed-<n>/<file>.csv.gz``.
Headers, text and integer fields must match exactly.  Float fields must
agree within ``REL_TOL`` relative to the larger of the two values and
the largest magnitude in that column of the reference, so a cumulative
quantity that drains to zero may differ by summation order (a cumsum
rewrite of the relay ledger moved results by a relative 8.8e-14) but
not by a modelling change.

Run ``python3 perfbench/reference.py`` at the commit whose outputs
should become the reference; it overwrites the stored files.
"""

from __future__ import annotations

import gzip
import math
import shutil
import tempfile
from pathlib import Path

import workloads

REL_TOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references"


def reference_dir(workload: str, seed: int, seeded: bool) -> Path | None:
    """Reference directory for a run, or None if none is stored.

    Workloads that draw no random numbers have one reference, stored
    under seed 0, that holds for every seed."""
    path = REFERENCES / workload / f"seed-{seed if seeded else 0}"
    return path if path.is_dir() else None


def load(directory: Path) -> dict[str, bytes]:
    return {p.name[:-len(".gz")]: gzip.decompress(p.read_bytes())
            for p in sorted(directory.glob("*.csv.gz"))}


def save(bodies: dict[str, bytes], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.csv.gz"):
        old.unlink()
    for name, body in bodies.items():
        # mtime=0 keeps the stored bytes independent of when they were made.
        (directory / f"{name}.gz").write_bytes(
            gzip.compress(body, compresslevel=9, mtime=0))


def _is_float(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        pass
    else:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _column_scales(rows: list[list[str]]) -> list[float]:
    scales = [0.0] * max((len(row) for row in rows), default=0)
    for row in rows:
        for i, token in enumerate(row):
            if _is_float(token):
                value = abs(float(token))
                if math.isfinite(value):
                    scales[i] = max(scales[i], value)
    return scales


def _floats_match(expected: float, actual: float, scale: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if math.isinf(expected) or math.isinf(actual):
        return expected == actual
    return abs(expected - actual) <= REL_TOL * max(abs(expected),
                                                   abs(actual), scale)


def compare_body(expected: bytes, actual: bytes) -> str | None:
    """None if the CSV bodies match under the rules above, else a reason."""
    if expected == actual:
        return None
    want = expected.decode().split("\n")
    got = actual.decode().split("\n")
    if len(want) != len(got):
        return f"{len(got)} lines, expected {len(want)}"
    if want[0] != got[0]:
        return f"header {got[0]!r}, expected {want[0]!r}"
    want_rows = [line.split(",") for line in want[1:]]
    scales = _column_scales(want_rows)
    for number, (row, line) in enumerate(zip(want_rows, got[1:]), start=2):
        tokens = line.split(",")
        if len(tokens) != len(row):
            return f"line {number}: {len(tokens)} fields, expected {len(row)}"
        for column, (want_token, got_token) in enumerate(zip(row, tokens)):
            if want_token == got_token:
                continue
            if not (_is_float(want_token) and _is_float(got_token)
                    and _floats_match(float(want_token), float(got_token),
                                      scales[column])):
                return (f"line {number} column {column + 1}: {got_token!r},"
                        f" expected {want_token!r}")
    return None


def compare(expected: dict[str, bytes], actual: dict[str, bytes]) -> list[str]:
    """Every mismatch between two sets of CSV bodies, as messages."""
    problems = []
    if sorted(expected) != sorted(actual):
        problems.append(f"files {sorted(actual)}, expected {sorted(expected)}")
    for name in sorted(set(expected) & set(actual)):
        reason = compare_body(expected[name], actual[name])
        if reason is not None:
            problems.append(f"{name}: {reason}")
    return problems


def _run_once(workload, seed: int, scratch: Path) -> dict[str, bytes]:
    experiment = workloads.import_experiment()
    out = scratch / "out"
    workloads.run(experiment, workloads.write_config(workload, seed, scratch),
                  out)
    try:
        return workloads.read_outputs(out)
    finally:
        shutil.rmtree(out)


def main() -> int:
    workloads.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK) as scratch:
        for workload in workloads.WORKLOADS.values():
            for seed in workload.reference_seeds:
                bodies = _run_once(workload, seed, Path(scratch))
                if not workload.seeded:
                    # A workload that draws no random numbers must not
                    # depend on the seed; check before storing one body.
                    other = _run_once(workload, seed + 1,
                                               Path(scratch))
                    if other != bodies:
                        raise SystemExit(f"{workload.name} depends on its "
                                         "seed; mark it seeded")
                save(bodies, REFERENCES / workload.name / f"seed-{seed}")
                print(f"{workload.name} seed {seed}: {len(bodies)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
