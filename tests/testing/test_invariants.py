"""InvariantMonitor: config wiring, clean-run silence, violation catching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError, InvariantViolation
from repro.testing import (
    InvariantMonitor,
    feasible_frame_sizes,
    quantization_bits,
    run_injection,
    run_selftest,
)
from repro.testing.selftest import INJECTIONS, _base_scenario


class TestConfigWiring:
    def test_invariants_value_is_validated(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(invariants="lenient")

    def test_off_builds_no_monitor(self):
        trainer = _base_scenario().build_trainer("reference")
        assert trainer.monitor is None

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_strict_builds_and_runs_monitor(self, engine):
        trainer = _base_scenario().build_trainer(engine, invariants="strict")
        assert isinstance(trainer.monitor, InvariantMonitor)
        trainer.run(stop_on_convergence=False)
        summary = trainer.monitor.summary()
        # Every built-in invariant ran, once per round (or once at start).
        assert summary["weight-stochasticity"] == 1
        assert summary["weight-spectrum"] == 1
        rounds = trainer.rounds_completed
        for per_round in (
            "ape-budget",
            "byte-ledger",
            "error-feedback",
            "consensus-envelope",
        ):
            assert summary[per_round] == rounds

    def test_monitored_run_matches_unmonitored_digest(self):
        """Arming the monitors must not perturb the trajectory."""
        from repro.testing import capture_run

        scenario = _base_scenario()
        plain = capture_run(scenario.build_trainer("reference"))
        watched = capture_run(
            scenario.build_trainer("reference", invariants="strict")
        )
        assert plain == watched


class TestSelfTestInjections:
    @pytest.mark.parametrize("name", sorted(INJECTIONS))
    def test_each_injection_is_caught_by_its_invariant(self, name):
        outcome = run_injection(name)
        assert outcome.caught, outcome.diagnostic
        assert outcome.expected_invariant in outcome.diagnostic

    def test_selftest_runs_every_injection(self):
        outcomes = run_selftest()
        assert {o.injection for o in outcomes} == set(INJECTIONS)
        assert all(o.caught for o in outcomes)

    def test_violation_carries_invariant_and_round(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        INJECTIONS["ledger"][0](trainer)
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "byte-ledger"
        assert excinfo.value.round_index == 1


class TestApeBudget:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ({"accumulated": -1.0}, "accumulated APE estimate is negative"),
            ({"accumulated": 1e9}, "exceeds the stage budget"),
            ({"threshold": 1e9}, "stage budget grew"),
        ],
    )
    def test_reports_the_lowest_offending_server(self, corrupt, message):
        trainer = _base_scenario().build_trainer("vectorized", invariants="strict")
        result = trainer.run(max_rounds=2, stop_on_convergence=False)
        for node in (3, 1):
            schedule = trainer._schedules[node]
            schedule.load_state_dict({**schedule.state_dict(), **corrupt})
        with pytest.raises(InvariantViolation, match=f"server 1: .*{message}"):
            trainer.monitor._check_ape_budget(result.rounds[-1])


class TestCustomChecks:
    def test_add_check_runs_every_round_and_can_violate(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        seen = []

        def spy(monitor, record, down):
            seen.append(record.round_index)

        trainer.monitor.add_check("spy", spy)
        trainer.run(stop_on_convergence=False)
        assert seen == list(range(1, trainer.rounds_completed + 1))
        assert trainer.monitor.summary()["spy"] == len(seen)

        fresh = _base_scenario().build_trainer("reference", invariants="strict")
        fresh.monitor.add_check(
            "always-fails",
            lambda monitor, record, down: monitor.violate(
                "always-fails", "synthetic", record.round_index
            ),
        )
        with pytest.raises(InvariantViolation) as excinfo:
            fresh.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "always-fails"


class TestFrameSizeOracle:
    def test_feasible_sizes_cover_every_suppression_count(self):
        sizes = feasible_frame_sizes(5, None)
        # d=5: M=0..1 UNCHANGED (44, 40), M=2..5 INDEX_VALUE (36, 24, 12, 0).
        assert sizes == frozenset({44, 40, 36, 24, 12, 0})

    def test_quantized_widths_extend_the_lattice(self):
        classic = feasible_frame_sizes(5, None)
        extended = feasible_frame_sizes(5, 2)
        assert classic <= extended

    def test_quantization_bits_reads_the_spec(self):
        from repro.compression.spec import CompressorSpec

        assert quantization_bits(CompressorSpec.parse("uniform:bits=6")) == 6
        assert quantization_bits(CompressorSpec.parse("terngrad")) == 2
        assert quantization_bits(CompressorSpec.parse("topk:k=3")) is None
        assert quantization_bits(CompressorSpec.parse("ape")) is None


class TestWeightChecks:
    def test_asymmetric_matrix_rejected_at_run_start(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        trainer.weight_matrix[2, 3] += 1e-3
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "weight-stochasticity"

    def test_off_support_weight_rejected(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        n = trainer.topology.n_nodes
        # Move weight onto a non-edge symmetrically, keeping row sums intact
        # so only the support check can catch it.
        u, v = 0, 3
        assert v not in trainer.topology.neighbors(u)
        w = trainer.weight_matrix
        shift = 0.01
        w[u, v] += shift
        w[v, u] += shift
        w[u, u] -= shift
        w[v, v] -= shift
        assert np.allclose(w.sum(axis=1), np.ones(n))
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "weight-stochasticity"
        assert "not an edge" in str(excinfo.value)

    def test_spectrum_gap_check_catches_disconnected_mixing(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        monitor = trainer.monitor
        # Identity mixing is symmetric doubly stochastic but has no spectral
        # gap: consensus cannot contract.
        trainer.weight_matrix = np.eye(trainer.topology.n_nodes)
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.on_run_start()
        assert excinfo.value.invariant == "weight-spectrum"


class TestConsensusEnvelope:
    def test_divergence_is_flagged_at_its_round(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")

        # The monitor runs before the on_round observer each round, so a
        # kick injected at the end of round 4 (past the 3-round warmup)
        # surfaces as a consensus blow-up checked at round 5.
        def kick(record):
            if record.round_index == 4:
                trainer.servers[0].params = trainer.servers[0].params + 1e9

        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False, on_round=kick)
        assert excinfo.value.invariant == "consensus-envelope"
        assert excinfo.value.round_index == 5
