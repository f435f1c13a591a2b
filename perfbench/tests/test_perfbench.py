"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_checkout(destination: Path, with_sources: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    shutil.copytree(BENCH, destination / BENCH.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", destination)
    if with_sources:
        shutil.copytree(ROOT / "src", destination / "src", ignore=ignore)
    return destination


def bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=checkout, capture_output=True, text=True,
                          timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(trace, kind):
    done = bench(ROOT, "--workload", "coverage", "--seed", "5",
                 "--seconds", "1", "--trace", trace)
    result = result_of(done)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        assert f"  {name} = " in done.stdout
        assert result["metrics"][name]["value"] >= 0
    assert f"error_rate = 0/{result['attempted']} failed/attempted" \
        in done.stdout


def test_perturbed_reference_counts_in_error_rate(tmp_path):
    checkout = copy_checkout(tmp_path)
    stored = next((checkout / BENCH.name / "references" / "coverage"
                   / "seed-0").glob("*.csv.gz"))
    lines = gzip.decompress(stored.read_bytes()).decode().split("\n")
    altitude, radius = lines[100].split(",")
    lines[100] = f"{altitude},{float(radius) * (1 + 1e-6)!r}"
    stored.write_bytes(gzip.compress("\n".join(lines).encode()))

    done = bench(checkout, "--workload", "coverage", "--seconds", "1")
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert (f"error_rate = {result['failed']}/{result['attempted']}"
            in done.stdout)
    assert "coverage.csv: line 101 column 2" in done.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=False)
    done = bench(checkout, "--workload", "relay_sweep", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_admits_summation_order_but_not_model_changes():
    body = b"t,x,n,label\n0.0,0.0,1,a\n1.0,250.5,2,b\n2.0,1e-15,3,c\n"
    same = reference.compare_body
    assert same(body, body) is None
    # Relative 1e-13 of the column's scale, also where a value drains to 0.
    assert same(body, body.replace(b"250.5", b"250.50000000000003")) is None
    assert same(body, body.replace(b"1e-15", b"0.0")) is None
    assert same(body, body.replace(b"250.5", b"250.5003")) is not None
    assert same(body, body.replace(b",2,", b",3,")) is not None
    assert same(body, body.replace(b",b\n", b",B\n")) is not None
    assert same(body, body.replace(b"t,x", b"t,y")) is not None
    assert same(body, body.replace(b"1,a", b"1.0,a")) is not None
    assert same(body, body + b"3.0,1.0,4,d\n") is not None
