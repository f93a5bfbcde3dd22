"""Tiny-scale builds of every workload, driven through the real run paths."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer counters that must read zero on each workload, because the
#: workload bypasses that layer, and ones that must fire.
BYPASSED = {
    workloads.FLEET: (
        "compression.compress.calls",
        "compression.hooks.calls",
        "faults.calls",
        "invariants.calls",
        "weights.solve.s",
        "server.step.calls",
        "semisync.node_rounds",
    ),
    workloads.MNIST: (
        "ape.calls",
        "invariants.calls",
        "server.step.calls",
        "semisync.node_rounds",
    ),
    workloads.SEMISYNC: ("weights.solve.s", "engine.communicate.self_ms"),
}
EXERCISED = {
    workloads.FLEET: ("ape.calls", "models.grad.calls", "models.loss.calls"),
    workloads.MNIST: (
        "compression.compress.calls",
        "compression.hooks.calls",
        "faults.calls",
        "weights.solve.s",
    ),
    workloads.SEMISYNC: (
        "invariants.calls",
        "ape.calls",
        "server.step.calls",
        "semisync.node_rounds",
        "network.ledger.calls",
    ),
}


def _units(section):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        first = workloads.build_inputs(name, 5, "tiny")
        second = workloads.build_inputs(name, 5, "tiny")
        assert first.topology.edges == second.topology.edges
        for a, b in zip(first.shards, second.shards):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.y, b.y)
        other = workloads.build_inputs(name, 6, "tiny")
        assert any(
            not np.array_equal(a.X, b.X) for a, b in zip(first.shards, other.shards)
        )


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_untraced_run(name):
    outcome = measure.Outcome()
    measure.run_untraced(outcome, name, seed=2, seconds=0.2, scale="tiny")
    assert (outcome.attempted, outcome.passed) == (1, 1)
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == _units(
        "end_to_end"
    )
    assert all(value > 0 for value, _ in outcome.metrics.values())
    assert outcome.samples["round_ms"] >= 100


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_traced_run_and_bypassed_layers(name):
    outcome = measure.Outcome()
    measure.run_traced(outcome, name, seed=2, seconds=2.0, scale="tiny")
    assert (outcome.attempted, outcome.passed) == (2, 2)
    metrics = {k: value for k, (value, _) in outcome.metrics.items()}
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == _units(
        "per_layer"
    )
    for counter in BYPASSED[name]:
        assert metrics[counter] == 0, counter
    for counter in EXERCISED[name]:
        assert metrics[counter] > 0, counter
    assert metrics["trace.overhead"] > 0
    if name == workloads.FLEET:
        assert metrics["engine.boundaries"] == pytest.approx(
            1 / workloads.SEGMENT_ROUNDS
        )


def test_failed_check_is_counted_not_passed(monkeypatch):
    real = workloads.build_inputs

    def impossible_floor(*args, **kwargs):
        inputs = real(*args, **kwargs)
        inputs.accuracy_floor = 1.01
        return inputs

    monkeypatch.setattr(workloads, "build_inputs", impossible_floor)
    outcome = measure.Outcome()
    with pytest.raises(measure.CheckFailed, match="below the floor"):
        measure.run_untraced(outcome, workloads.FLEET, 2, 0.2, scale="tiny")
    assert (outcome.attempted, outcome.passed) == (1, 0)


def test_run_reports_a_raising_run_as_failed(monkeypatch, capsys):
    from perfbench import run

    for variable in run.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(variable, "1")

    def raising(outcome, *args):
        outcome.attempted += 1
        raise RuntimeError("injected")

    monkeypatch.setattr(measure, "run_untraced", raising)
    code = run.main(
        ["--workload", workloads.FLEET, "--seed", "1", "--seconds", "1", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    arguments = ["--workload", workloads.FLEET, "--seed", "1", "--seconds", "1"]
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *arguments, "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
