"""Bit-for-bit equivalence: vectorized engine vs the reference oracle.

The vectorized engine (`repro.core.engine.VectorizedEngine`) promises the
*same trajectories* as the per-object reference implementation — not merely
close, but identical floating point values, identical byte accounting, and
identical post-run server state — across every selection policy, both
straggler strategies, and active fault plans. These tests pin that contract.
"""

import numpy as np
import pytest

from repro.compression.base import Compressor, EdgeState, Payload
from repro.core.ape import APESchedule
from repro.core.config import (
    SelectionPolicy,
    ShardWeighting,
    SNAPConfig,
    StragglerStrategy,
)
from repro.core.engine import DeliveredEdges, ReferenceEngine, VectorizedEngine
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.faults.models import (
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
)
from repro.faults.plan import FaultPlan
from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.models.softmax import SoftmaxRegression
from repro.testing import RunDigest
from repro.testing.scenarios import ScenarioGen
from repro.topology.generators import random_regular_topology
from repro.topology.graph import Topology

N_NODES = 6
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]


def _binary_shards(seed=0, n_samples=40, n_features=5, sizes=None):
    rng = np.random.default_rng(seed)
    shards = []
    counts = sizes if sizes is not None else [n_samples] * N_NODES
    for count in counts:
        X = rng.normal(size=(count, n_features))
        w = rng.normal(size=n_features)
        y = (X @ w + 0.3 * rng.normal(size=count) > 0).astype(float)
        shards.append(Dataset(X, y))
    return shards


def _multiclass_shards(seed=0, n_samples=30, n_features=4, n_classes=3):
    rng = np.random.default_rng(seed)
    shards = []
    for _ in range(N_NODES):
        X = rng.normal(size=(n_samples, n_features))
        y = rng.integers(0, n_classes, size=n_samples)
        shards.append(Dataset(X, y))
    return shards


def _fault_plan():
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11),
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=IndependentCorruption(0.08, seed=13),
    )


def _run(engine, model, shards, *, fault_plan=None, rounds=30, **config_overrides):
    config_overrides.setdefault("optimize_weights", False)
    config = SNAPConfig(engine=engine, max_rounds=rounds, seed=7, **config_overrides)
    trainer = SNAPTrainer(
        model,
        shards,
        Topology(N_NODES, EDGES),
        config,
        fault_plan=_fault_plan() if fault_plan else None,
    )
    result = trainer.run(stop_on_convergence=False)
    return trainer, result


def _assert_identical(ref_pair, vec_pair):
    ref_trainer, ref_result = ref_pair
    vec_trainer, vec_result = vec_pair
    # One RunDigest covers the whole equivalence surface: the round-record
    # trajectory, the flow ledger, the final mean parameters, and the
    # post-run per-server state (params, iterations, views, last_sent,
    # freshness, schedule state machines, EF residuals).
    ref_digest = RunDigest.capture(ref_trainer, ref_result)
    vec_digest = RunDigest.capture(vec_trainer, vec_result)
    assert ref_digest == vec_digest, ref_digest.diff(vec_digest)
    # Accuracy is evaluation-side and deliberately outside the digest's
    # frozen recipe; pin it separately.
    accuracies = lambda result: [r.accuracy for r in result.rounds]  # noqa: E731
    assert accuracies(ref_result) == accuracies(vec_result)
    assert ref_result.final_accuracy == vec_result.final_accuracy


class TestEngineSelection:
    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(engine="warp-drive")

    def test_trainer_builds_requested_engine(self):
        shards = _binary_shards()
        model = LogisticRegression(5)
        ref, _ = _run("reference", model, shards, rounds=1)
        vec, _ = _run("vectorized", model, shards, rounds=1)
        assert isinstance(ref.engine, ReferenceEngine)
        assert isinstance(vec.engine, VectorizedEngine)


@pytest.mark.parametrize("selection", list(SelectionPolicy))
@pytest.mark.parametrize("straggler", list(StragglerStrategy))
class TestPolicyMatrix:
    """Every policy × straggler combination, clean and faulty networks."""

    def test_clean_network(self, selection, straggler):
        shards = _binary_shards()
        model = LogisticRegression(5)
        kwargs = dict(selection=selection, straggler_strategy=straggler)
        _assert_identical(
            _run("reference", model, shards, **kwargs),
            _run("vectorized", model, shards, **kwargs),
        )

    def test_gilbert_elliott_fault_plan(self, selection, straggler):
        """GE link bursts + Markov node crashes + frame corruption."""
        shards = _binary_shards(seed=1)
        model = LogisticRegression(5)
        kwargs = dict(selection=selection, straggler_strategy=straggler)
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, **kwargs),
            _run("vectorized", model, shards, fault_plan=True, **kwargs),
        )


class TestModelCoverage:
    def test_softmax_model(self):
        shards = _multiclass_shards()
        model = SoftmaxRegression(4, 3)
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, rounds=20),
            _run("vectorized", model, shards, fault_plan=True, rounds=20),
        )

    def test_mlp_model(self):
        shards = _multiclass_shards(seed=2)
        model = MLPClassifier((4, 6, 3))
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, rounds=15),
            _run("vectorized", model, shards, fault_plan=True, rounds=15),
        )

    def test_unequal_shards_sample_weighting(self):
        """Ragged shard sizes exercise the non-uniform batched fallback."""
        shards = _binary_shards(seed=3, sizes=[20, 35, 28, 41, 22, 30])
        model = LogisticRegression(5)
        kwargs = dict(shard_weighting=ShardWeighting.SAMPLES)
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, **kwargs),
            _run("vectorized", model, shards, fault_plan=True, **kwargs),
        )


class TestObservability:
    def test_accuracy_evaluation_matches(self):
        shards = _binary_shards(seed=4)
        test_set = _binary_shards(seed=5, n_samples=60)[0]
        model = LogisticRegression(5)

        def run(engine):
            config = SNAPConfig(
                engine=engine, max_rounds=20, seed=7, optimize_weights=False
            )
            trainer = SNAPTrainer(model, shards, Topology(N_NODES, EDGES), config)
            result = trainer.run(
                stop_on_convergence=False, test_set=test_set, eval_every=5
            )
            return trainer, result

        ref = run("reference")
        vec = run("vectorized")
        _assert_identical(ref, vec)
        evaluated = [r.accuracy for r in ref[1].rounds if r.accuracy is not None]
        assert len(evaluated) == 4  # eval_every=5 over 20 rounds

    def test_callbacks_observe_synced_servers(self):
        """on_round sees up-to-date EdgeServer state under the fast path."""
        shards = _binary_shards(seed=6)
        model = LogisticRegression(5)
        config = SNAPConfig(
            engine="vectorized", max_rounds=5, seed=7, optimize_weights=False
        )
        trainer = SNAPTrainer(model, shards, Topology(N_NODES, EDGES), config)
        observed = []

        def on_round(record):
            observed.append(trainer.servers[0].iteration)

        trainer.run(stop_on_convergence=False, on_round=on_round)
        assert observed == [1, 2, 3, 4, 5]

    def test_second_run_continues_identically(self):
        """Engine state round-trips through the server objects between runs."""
        shards = _binary_shards(seed=8)
        model = LogisticRegression(5)

        def run_split(engine):
            config = SNAPConfig(
                engine=engine, max_rounds=30, seed=7, optimize_weights=False
            )
            trainer = SNAPTrainer(
                model,
                shards,
                Topology(N_NODES, EDGES),
                config,
                fault_plan=_fault_plan(),
            )
            first = trainer.run(max_rounds=12, stop_on_convergence=False)
            second = trainer.run(max_rounds=13, stop_on_convergence=False)
            return trainer, first, second

        ref_trainer, ref_a, ref_b = run_split("reference")
        vec_trainer, vec_a, vec_b = run_split("vectorized")
        assert ref_a.rounds == vec_a.rounds
        assert ref_b.rounds == vec_b.rounds
        assert np.array_equal(ref_b.final_params, vec_b.final_params)
        for ref, vec in zip(ref_trainer.servers, vec_trainer.servers):
            assert np.array_equal(ref.params, vec.params)


class TestColumnWiseAPE:
    def test_vectorized_preset_makes_no_per_node_schedule_calls(self, monkeypatch):
        """The vectorized APE round steps all N schedules as columns: no
        per-row ``record_round`` / ``send_threshold`` call at N=64, and the
        same digest as the reference engine's per-row walk."""
        n_nodes = 64
        shards = _binary_shards(seed=9, sizes=[30] * n_nodes)
        model = LogisticRegression(5)
        topology = random_regular_topology(n_nodes, 4, seed=3)

        def run(engine):
            config = SNAPConfig(
                engine=engine, max_rounds=25, seed=7, optimize_weights=False
            )
            trainer = SNAPTrainer(
                model, shards, topology, config, fault_plan=_fault_plan()
            )
            return trainer, trainer.run(stop_on_convergence=False)

        reference = run("reference")

        calls = []
        record_round = APESchedule.record_round
        send_threshold = APESchedule.send_threshold.fget

        def counted_record_round(self, suppressed_max):
            calls.append("record_round")
            return record_round(self, suppressed_max)

        def counted_send_threshold(self):
            calls.append("send_threshold")
            return send_threshold(self)

        monkeypatch.setattr(APESchedule, "record_round", counted_record_round)
        monkeypatch.setattr(
            APESchedule, "send_threshold", property(counted_send_threshold)
        )
        vectorized = run("vectorized")
        monkeypatch.undo()

        assert calls == []
        # Stage boundaries (and their EXTRA restarts) happened in the run.
        assert vectorized[0]._schedules.stage.min() >= 1
        _assert_identical(reference, vectorized)


class TestOneCommunicationKernel:
    @pytest.mark.parametrize("spec", ["ape", "uniform:bits=4", "topk:k=3"])
    def test_array_kernels_build_no_per_edge_objects(self, spec, monkeypatch):
        """Schemes without per-edge state run the vectorized round as pure
        array work at N=64 under faults: no per-edge ``compress`` call, no
        ``Payload`` and no ``EdgeState`` — and the reference's digest."""
        n_nodes = 64
        shards = _binary_shards(seed=9, sizes=[30] * n_nodes)
        model = LogisticRegression(5)
        topology = random_regular_topology(n_nodes, 4, seed=3)

        def run(engine):
            config = SNAPConfig(
                engine=engine,
                max_rounds=25,
                seed=7,
                optimize_weights=False,
                compressor=spec,
            )
            trainer = SNAPTrainer(
                model, shards, topology, config, fault_plan=_fault_plan()
            )
            return trainer, trainer.run(stop_on_convergence=False)

        reference = run("reference")

        counts = {"compress": 0, "Payload": 0, "EdgeState": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        for cls in (Compressor, *_subclasses(Compressor)):
            if "compress" in vars(cls):
                monkeypatch.setattr(
                    cls, "compress", counting("compress", vars(cls)["compress"])
                )
        monkeypatch.setattr(
            Payload, "__new__", counting("Payload", Payload.__new__)
        )
        monkeypatch.setattr(
            EdgeState, "__init__", counting("EdgeState", EdgeState.__init__)
        )
        vectorized = run("vectorized")
        monkeypatch.undo()

        assert counts == {"compress": 0, "Payload": 0, "EdgeState": 0}
        assert vectorized[0]._edge_states == {}
        _assert_identical(reference, vectorized)


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


class TestDeliveredEdgesContract:
    @pytest.mark.parametrize("index", [2, 51])
    def test_every_engine_delivers_each_pair_at_most_once(self, index):
        """All three engines hand the trainer a ``DeliveredEdges`` with no
        repeated pair (the staleness ledger counts ``sources.size`` as the
        delivered-link count) and agree on the pairs every round, under
        link outages, node crashes and corruption."""
        scenario = ScenarioGen(master_seed=0).scenario(index)
        assert scenario.faulty

        def delivered_per_round(engine):
            trainer = scenario.build_trainer(engine)
            communicate = trainer.engine.communicate
            returns = []

            def recording(round_index, down):
                result = communicate(round_index, down)
                returns.append(result[1])
                return result

            trainer.engine.communicate = recording
            trainer.run(stop_on_convergence=False)
            n_links = 2 * len(trainer.topology.edges)
            rounds = []
            for delivered in returns:
                assert isinstance(delivered, DeliveredEdges)
                pairs = list(
                    zip(delivered.sources.tolist(), delivered.destinations.tolist())
                )
                assert len(set(pairs)) == len(pairs) == len(delivered)
                rounds.append(sorted(pairs))
            return rounds, n_links

        reference, n_links = delivered_per_round("reference")
        assert len(reference) == scenario.max_rounds
        # The faults bite: some round loses at least one directed link.
        assert min(len(pairs) for pairs in reference) < n_links
        assert delivered_per_round("vectorized")[0] == reference
        assert delivered_per_round("semisync")[0] == reference
