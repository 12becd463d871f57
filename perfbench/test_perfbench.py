"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

Smoke-size runs of every workload must pass their checks and print the
metrics BENCHMARK.json names; a pricer perturbed by 1e-6 must be counted as a
failed operation; and a tree without the bondkit sources must fail fast.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bondkit as bk  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", ["t3_desk", "cli_mix"])
def test_traced_smoke_run_reports_every_layer(workload):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["pde.solve.calls"]["value"] > 0
    assert metrics["import.bondkit_s"]["value"] > 0
    if workload == "t3_desk":
        assert metrics["pde.solve.desk.busy_s"]["value"] > 0
        assert metrics["pde.solve.companion.busy_s"]["value"] > 0
        assert metrics["analysis.check_table.cells_checked"]["value"] % 32 == 0
    else:
        assert metrics["cli.main.price.busy_s"]["value"] > 0
        assert metrics["pde.to_csv.bytes"]["value"] > 0


def test_pricer_perturbed_by_1e_6_is_a_failed_operation(monkeypatch, tmp_path):
    original = bk.improved_log_price
    monkeypatch.setattr(bk, "improved_log_price", lambda p, tau, r: original(p, tau, r) + 1e-6)
    wl = workloads.Curves(5, True, str(tmp_path), ROOT)
    for i in range(len(wl.ops)):
        wl.run_op(i)
    n_improved = sum(1 for op in wl.ops if op[0] == "improved")
    assert wl.failures == {("check", "Failure"): n_improved}
    assert wl.n_ok == len(wl.ops) - n_improved


def test_failed_check_makes_the_run_incorrect(monkeypatch, capsys):
    import run

    original = bk.cw_log_price
    monkeypatch.setattr(bk, "cw_log_price", lambda p, tau, r: original(p, tau, r) * (1 + 1e-6))
    code = run.main(["--workload", "curves", "--seed", "5", "--seconds", "0.5", "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert any(line.startswith("failure check.Failure ") for line in out)


def test_unperturbed_stream_has_no_failures(tmp_path):
    wl = workloads.Curves(5, True, str(tmp_path), ROOT)
    for i in range(2 * len(wl.ops)):
        wl.run_op(i)
    assert wl.failed == 0 and wl.attempted == 2 * len(wl.ops)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("curves", trace=0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
