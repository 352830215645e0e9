"""Smoke tests of the benchmark itself, on small grids.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from flopit.cli import main as flopit_main  # noqa: E402
from workloads import WORKLOADS, Checker, output_paths, parse_summary, sha256, write_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 1):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True, proc.stderr
    assert final["failed"] == 0 and final["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for m in final["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_sweep_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, "perfbench/sweep.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {tuple(line.split()[:2]) for line in proc.stdout.splitlines() if line.strip()}
    for section in ("end_to_end", "per_layer"):
        for m in BENCHMARK[section]:
            assert (m["name"], m["unit"]) in rows
    assert ("failed_frac", "frac") in rows


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "ramp-fill", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed(tmp_path):
    wl = WORKLOADS["noisy-depth-smooth"]
    digests = []
    for n, seed in enumerate((3, 3, 4)):
        d = tmp_path / str(n)
        d.mkdir()
        inputs = write_inputs(wl, wl.spec(40, seed), d)
        digests.append([sha256(p) for p in inputs.paths])
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _interpolate(tmp_path, wl, capsys):
    spec = wl.spec(40, 1)
    inputs = write_inputs(wl, spec, tmp_path)
    prefix = tmp_path / "out"
    argv = ["interpolate", "--dem", str(inputs.dem)] + inputs.layer_args()
    assert flopit_main(argv + wl.cli_args() + ["--out", str(prefix)]) == 0
    summary = parse_summary(capsys.readouterr().out)
    outs = output_paths(prefix)
    assert flopit_main(["compare", "--prob", str(outs["prob"]), "--zones",
                        str(outs["zones"]), "--out", str(outs["csv"])]) == 0
    return Checker(wl, spec, inputs), prefix, summary


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_accepts_the_program(tmp_path, capsys, workload):
    checker, prefix, summary = _interpolate(tmp_path, WORKLOADS[workload], capsys)
    assert checker.check(prefix, summary) == []
    assert checker.check(prefix, summary) == []  # byte-identical repeat


def test_checker_catches_a_wrong_cell(tmp_path, capsys):
    checker, prefix, summary = _interpolate(tmp_path, WORKLOADS["wse8-interior"], capsys)
    path = output_paths(prefix)["prob"]
    lines = path.read_text().splitlines()
    row = lines[6 + 20].split()
    row[5] = f"{float(row[5]) + 3e-6:.6f}"  # three units in the last place
    lines[6 + 20] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    problems = checker.check(prefix, summary)
    assert any("oracle" in p for p in problems), problems


def test_checker_catches_changed_bytes_and_counts(tmp_path, capsys):
    checker, prefix, summary = _interpolate(tmp_path, WORKLOADS["ramp-fill"], capsys)
    assert checker.check(prefix, summary) == []
    csv = output_paths(prefix)["csv"]
    csv.write_text(csv.read_text() + "\n")
    wrong = dict(summary, cells_clamped_high=summary["cells_clamped_high"] + 1)
    problems = checker.check(prefix, wrong)
    assert "csv differs from the first run" in problems
    assert "stdout cell counts differ from the first run" in problems
