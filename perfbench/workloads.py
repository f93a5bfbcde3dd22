"""The three benchmark workloads: seeded inputs, trainer construction, driving.

Every input a workload needs (shards, test set, topology, fault plan) is
drawn from the workload seed by :func:`build_inputs`; the program under test
only ever receives those generated objects. Each workload is a closed loop
in one process: a round starts when the previous one ends, and nothing
opens a socket.

``scale="tiny"`` shrinks every workload to a few nodes so the benchmark's own
tests can build and drive all three in seconds; the structure (engine,
compressor path, faults, invariants, run segmentation) is unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import SNAPConfig, StragglerStrategy
from repro.core.trainer import SNAPTrainer
from repro.data.credit import SyntheticCreditDefault
from repro.data.dataset import Dataset
from repro.data.mnist import SyntheticMNIST
from repro.data.partition import iid_partition
from repro.faults import (
    FaultPlan,
    GilbertElliottLinkFailures,
    IndependentCorruption,
    ScheduledStragglers,
)
from repro.models.logistic import LogisticRegression
from repro.models.metrics import accuracy_score
from repro.models.mlp import MLPClassifier
from repro.models.svm import LinearSVM
from repro.network.timing import LinkTimingModel
from repro.topology.generators import random_regular_topology

FLEET = "fleet-ape-4096"
MNIST = "mnist-mlp-lossy"
SEMISYNC = "semisync-straggler-strict"
NAMES = (FLEET, MNIST, SEMISYNC)

#: Rounds per ``run()`` call on the segmented workload, the granularity of
#: checkpoint and orchestrator boundaries.
SEGMENT_ROUNDS = 10
#: Round cap handed to a single ``run()`` call; the deadline stops it first.
UNBOUNDED_ROUNDS = 10**9

#: The benchmark's clock: this process's CPU time. Every workload runs
#: single-threaded (BLAS pinned to one thread, no workers, no sockets), so
#: on an idle machine it reads the same as the wall clock; on a shared
#: virtual machine it leaves out the time the hypervisor steals, which
#: otherwise makes wall-clock figures jump by 2x from second to second.
CLOCK = time.process_time


#: Seed of what stays fixed across workload seeds: each task's data
#: distribution (MNIST class templates, the credit generator's true
#: weights) and the program's own ``SNAPConfig.seed`` (initial parameters,
#: compressor streams). The workload seed draws the samples, the topology
#: and the fault chains. Redrawing the distribution or the initial point
#: per seed would change how hard the task is, and with it every
#: convergence figure, from run to run.
TASK_SEED = 2020


@dataclass
class Inputs:
    """Everything one workload trains on, generated from the seed."""

    model: object
    shards: list
    test_set: Dataset
    topology: object
    config: SNAPConfig
    #: Fresh fault plan per trainer (plans cache per-run chain state).
    fault_plan: Callable[[], FaultPlan | None]
    #: ``run()`` calls of this many rounds (``None``: one call per run).
    segment_rounds: int | None
    #: Loss at or below which ``time_to_target_s`` is taken.
    loss_target: float
    #: A run whose final test accuracy is below this fails its check.
    accuracy_floor: float


def _fleet(seed: int, tiny: bool) -> Inputs:
    n_nodes, n_features, samples = (16, 10, 10) if tiny else (4096, 10, 10)
    rng = np.random.default_rng([seed, 1])
    # Labels are the sign of a projection of isotropic features, so every
    # direction (seed) poses the same task.
    direction = rng.normal(size=n_features)

    def draw(n: int) -> Dataset:
        X = rng.normal(size=(n, n_features))
        return Dataset(X, (X @ direction > 0).astype(float))

    shards = [draw(samples) for _ in range(n_nodes)]
    test_set = draw(2000)
    topology = random_regular_topology(
        n_nodes, degree=4, seed=int(rng.integers(2**31))
    )
    config = SNAPConfig(
        engine="vectorized",
        optimize_weights=False,
        sparse_weights=True,
        retain_flow_records=False,
        max_rounds=UNBOUNDED_ROUNDS,
        seed=TASK_SEED,
    )
    return Inputs(
        model=LogisticRegression(n_features),
        shards=shards,
        test_set=test_set,
        topology=topology,
        config=config,
        fault_plan=lambda: None,
        segment_rounds=SEGMENT_ROUNDS,
        # Reached in the second segment, so one run boundary is on the way.
        loss_target=0.585,
        accuracy_floor=0.9,
    )


def _mnist(seed: int, tiny: bool) -> Inputs:
    n_nodes, per_shard, hidden = (6, 20, 8) if tiny else (32, 100, 30)
    rng = np.random.default_rng([seed, 2])
    generator = SyntheticMNIST(seed=TASK_SEED, noise_std=0.5)
    train, test_set = generator.train_test(
        n_train=n_nodes * per_shard, n_test=2000, seed=rng
    )
    shards = iid_partition(train, n_nodes, seed=rng)
    topology = random_regular_topology(
        n_nodes, degree=4, seed=int(rng.integers(2**31))
    )
    link_seed, corrupt_seed = (int(s) for s in rng.integers(2**31, size=2))
    config = SNAPConfig(
        engine="vectorized",
        optimize_weights=True,
        # The safe step bound is loose for the MLP; a fixed larger step
        # brings accuracy to its plateau within the run, so the final
        # accuracy does not hinge on how many rounds the budget allowed.
        alpha=0.15,
        compressor="uniform:bits=8",
        straggler_strategy=StragglerStrategy.REWEIGHT,
        max_rounds=UNBOUNDED_ROUNDS,
        seed=TASK_SEED,
    )
    return Inputs(
        model=MLPClassifier((784, hidden, 10)),
        shards=shards,
        test_set=test_set,
        topology=topology,
        config=config,
        fault_plan=lambda: FaultPlan(
            links=GilbertElliottLinkFailures(0.05, 0.3, seed=link_seed),
            corruption=IndependentCorruption(0.01, seed=corrupt_seed),
        ),
        segment_rounds=None,
        loss_target=1.0,
        # 120 training samples at tiny scale cap test accuracy near 0.7.
        accuracy_floor=0.5 if tiny else 0.8,
    )


def _semisync(seed: int, tiny: bool) -> Inputs:
    n_nodes, per_shard = (8, 50) if tiny else (128, 200)
    rng = np.random.default_rng([seed, 3])
    generator = SyntheticCreditDefault(seed=TASK_SEED)
    train, test_set = generator.train_test(
        n_train=n_nodes * per_shard, n_test=2000, seed=rng
    )
    shards = iid_partition(train, n_nodes, seed=rng)
    # Regular, so the straggler has the same number of neighbours on every
    # seed and the staleness barrier sees the same fan-in.
    topology = random_regular_topology(
        n_nodes, degree=3, seed=int(rng.integers(2**31))
    )
    straggler = n_nodes - 1
    config = SNAPConfig(
        engine="semisync",
        optimize_weights=False,
        # The Metropolis-derived safe step is tiny on a degree-3 graph; a
        # fixed step converges within the run on every seed.
        alpha=0.02,
        staleness_bound=2,
        straggler_patience_s=4.0,
        timing=LinkTimingModel(compute_s_per_round=1.0),
        invariants="strict",
        max_rounds=UNBOUNDED_ROUNDS,
        seed=TASK_SEED,
    )
    return Inputs(
        model=LinearSVM(n_features=generator.n_features, regularization=1e-2),
        shards=shards,
        test_set=test_set,
        topology=topology,
        config=config,
        fault_plan=lambda: FaultPlan(
            clocks=ScheduledStragglers({straggler: 10.0})
        ),
        segment_rounds=None,
        loss_target=0.59,
        accuracy_floor=0.75,
    )


_BUILDERS = {FLEET: _fleet, MNIST: _mnist, SEMISYNC: _semisync}


def build_inputs(name: str, seed: int, scale: str = "full") -> Inputs:
    """Generate one workload's inputs from ``seed`` (same seed, same inputs)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if scale not in ("full", "tiny"):
        raise ValueError(f"scale must be 'full' or 'tiny', got {scale!r}")
    return _BUILDERS[name](seed, scale == "tiny")


def make_trainer(inputs: Inputs) -> SNAPTrainer:
    """Construct a fresh trainer over the workload's inputs."""
    return SNAPTrainer(
        inputs.model,
        inputs.shards,
        inputs.topology,
        inputs.config,
        fault_plan=inputs.fault_plan(),
    )


class RoundBudget:
    """Stops a ``run()`` at a :data:`CLOCK` deadline or after exactly ``rounds``.

    Duck-types :class:`~repro.consensus.convergence.ConvergenceDetector`:
    the trainer asks ``observe`` after every round and breaks out of its
    loop on ``True``, so a time-bounded run ends between rounds with all
    engine state synced, exactly like a converged one. A deadline-bounded
    run keeps going past the deadline until ``min_rounds`` are done.
    """

    def __init__(
        self,
        rounds: int | None = None,
        deadline: float | None = None,
        min_rounds: int = 0,
    ):
        self.rounds = rounds
        self.deadline = deadline
        self.min_rounds = min_rounds
        self.observed = 0
        self.converged_at: int | None = None

    def done(self, completed: int) -> bool:
        """Whether a run that has completed ``completed`` rounds must stop."""
        if self.rounds is not None:
            return completed >= self.rounds
        return completed >= self.min_rounds and CLOCK() >= self.deadline

    def observe(self, loss: float, consensus: float = 0.0) -> bool:
        self.observed += 1
        if self.converged_at is None and self.done(self.observed):
            self.converged_at = self.observed
        return self.converged_at is not None


def evaluate(trainer: SNAPTrainer, test_set: Dataset) -> float:
    """Test accuracy of the network-average model."""
    predictions = trainer.model.predict(trainer.mean_params(), test_set.X)
    return accuracy_score(test_set.y, predictions)


def drive(
    trainer: SNAPTrainer,
    inputs: Inputs,
    *,
    seconds: float | None = None,
    rounds: int | None = None,
    min_rounds: int = 0,
) -> tuple[list, list[float]]:
    """Train for ``seconds`` (and ``min_rounds``) or for exactly ``rounds``.

    Returns the round records and the test accuracy after each ``run()``
    call. A segmented workload checks the budget between segments, so a
    deadline-bounded run is a whole number of segments; exactly ``rounds``
    reproduces the same segmentation with a shorter last segment if needed.
    """
    if (seconds is None) == (rounds is None):
        raise ValueError("give exactly one of seconds= and rounds=")
    budget = RoundBudget(
        rounds=rounds,
        deadline=None if seconds is None else CLOCK() + seconds,
        min_rounds=min_rounds,
    )
    records: list = []
    accuracies: list[float] = []
    if inputs.segment_rounds is None:
        result = trainer.run(
            max_rounds=UNBOUNDED_ROUNDS, detector=budget, stop_on_convergence=True
        )
        records.extend(result.rounds)
        accuracies.append(evaluate(trainer, inputs.test_set))
        return records, accuracies
    while not (records and budget.done(len(records))):
        step = inputs.segment_rounds
        if rounds is not None:
            step = min(step, rounds - len(records))
        result = trainer.run(max_rounds=step, stop_on_convergence=False)
        records.extend(result.rounds)
        accuracies.append(evaluate(trainer, inputs.test_set))
    return records, accuracies
