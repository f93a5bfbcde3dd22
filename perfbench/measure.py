"""One benchmark run of one workload: untraced end-to-end or traced per-layer.

An untraced run builds the workload's inputs from the seed, warms up on one
throwaway trainer (the first one in a process also pays lazy scipy imports),
times several more constructions for ``setup_s``, then drives the last one
for the time budget and checks its outputs.

A traced run drives an untraced trainer for half the budget, installs the
tracing wrappers, drives a second trainer for exactly as many rounds (same
``run()`` segmentation), removes the wrappers, and requires the two runs to
be bitwise identical before it reports any per-layer number.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from perfbench import stats, workloads
from perfbench.calibration import Probe, RoundTimer, timed
from perfbench.trace import Tracer, install
from perfbench.workloads import CLOCK
from repro.testing.digest import round_trace_entry, server_state_sha

#: Timed constructions for ``setup_s``: at least this many ...
MIN_SETUP_SAMPLES = 5
#: ... and more (up to the cap) while they have taken less than this.
SETUP_SECONDS = 2.0
MAX_SETUP_SAMPLES = 25
#: Round gaps every untraced run collects, even past its deadline, so that
#: ``round_ms.p90`` keeps ten samples beyond it.
MIN_GAPS = stats.min_samples_for(90)
#: Rounds the throwaway trainer runs before anything is timed.
WARMUP_ROUNDS = 2


class CheckFailed(Exception):
    """A run's outputs failed the benchmark's correctness checks."""


@dataclass
class Outcome:
    """What one invocation reports: run counts and metrics by name.

    ``attempted`` is bumped before each training run starts and ``passed``
    only after its checks succeed, so a run that raises or fails a check
    is counted as failed by whoever catches the exception.
    """

    attempted: int = 0
    passed: int = 0
    #: ``name -> (value, unit)``.
    metrics: dict = field(default_factory=dict)
    #: What the metrics were computed from (counts, setup samples, seconds).
    samples: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def warm_up(inputs) -> None:
    """Build, briefly drive and drop one trainer before anything is timed.

    The first trainer built in a process pays lazy scipy imports, and its
    first rounds pay the imports and caches of the round loop; neither is
    paid again by later trainers.
    """
    trainer = workloads.make_trainer(inputs)
    workloads.drive(trainer, inputs, rounds=WARMUP_ROUNDS)
    del trainer
    gc.collect()


def timed_setups(inputs, probe: Probe):
    """Construct trainers repeatedly; returns the last one and every duration.

    Durations are rescaled by the probes run around each construction.
    """
    samples: list[float] = []
    raw = 0.0
    while True:
        trainer = None
        gc.collect()
        start = CLOCK()
        trainer, seconds = timed(probe, lambda: workloads.make_trainer(inputs))
        raw += CLOCK() - start
        samples.append(seconds)
        if len(samples) >= MAX_SETUP_SAMPLES or (
            len(samples) >= MIN_SETUP_SAMPLES and raw >= SETUP_SECONDS
        ):
            return trainer, samples


def check_outputs(trainer, inputs, records, accuracy: float) -> None:
    """Raise :class:`CheckFailed` unless the run's outputs are sound.

    * every recorded loss is finite;
    * the final test accuracy is at least the workload's floor;
    * the tracker's total bytes equal the sum of its per-round bytes, and
      (on the lockstep engines) the sum of the round records' bytes. On
      the semisync engine a left-behind straggler's flows are charged to
      its own, earlier sender round after that round's record was taken,
      so there the records may only under-count each round.
    """
    if not records:
        raise CheckFailed("no round completed")
    bad = [r.round_index for r in records if not math.isfinite(r.mean_loss)]
    if bad:
        raise CheckFailed(f"non-finite loss in rounds {bad[:5]}")
    if not accuracy >= inputs.accuracy_floor:
        raise CheckFailed(
            f"final accuracy {accuracy:.4f} below the floor {inputs.accuracy_floor}"
        )
    tracker = trainer.tracker
    per_round = dict(tracker.per_round_bytes())
    if sum(per_round.values()) != tracker.total_bytes:
        raise CheckFailed(
            f"tracker total {tracker.total_bytes} != per-round sum "
            f"{sum(per_round.values())}"
        )
    recorded = sum(r.bytes_sent for r in records)
    if inputs.config.engine == "semisync":
        short = [
            r.round_index
            for r in records
            if r.bytes_sent > per_round.get(r.round_index, 0)
        ]
        if short:
            raise CheckFailed(f"records exceed the ledger in rounds {short[:5]}")
    elif recorded != tracker.total_bytes:
        raise CheckFailed(
            f"tracker total {tracker.total_bytes} != recorded sum {recorded}"
        )


def _to_target(inputs, records, gaps) -> float:
    """Time from the first round's start to the first round at the target."""
    for index, record in enumerate(records):
        if record.mean_loss <= inputs.loss_target:
            return sum(gaps[: index + 1])
    raise CheckFailed(
        f"loss never reached the target {inputs.loss_target} in "
        f"{len(records)} rounds (last {records[-1].mean_loss:.4f})"
    )


def run_untraced(
    outcome: Outcome, name: str, seed: int, seconds: float, scale: str = "full"
) -> None:
    """The end-to-end metrics of one workload (tracing off)."""
    outcome.attempted += 1
    inputs = workloads.build_inputs(name, seed, scale)
    warm_up(inputs)
    probe = Probe()
    trainer, setup_samples = timed_setups(inputs, probe)
    timer = RoundTimer(probe)
    trainer.add_round_observer(timer)
    # Round gaps are taken between consecutive round completions after the
    # first run() segment (the first round on a one-run workload): each
    # later segment then adds exactly one boundary gap per segment length,
    # all of the same kind (sync, evaluation, begin_run).
    skip = inputs.segment_rounds or 1
    wall_start = time.perf_counter()
    timer.start()
    records, accuracies = workloads.drive(
        trainer, inputs, seconds=seconds, min_rounds=MIN_GAPS + skip
    )
    wall = time.perf_counter() - wall_start
    check_outputs(trainer, inputs, records, accuracies[-1])
    gaps = timer.gaps()
    round_ms = [1000.0 * gap for gap in gaps[skip:]]
    setup_s = statistics.median(setup_samples)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "rounds_per_s": (len(records) / sum(gaps), "1/s"),
        "round_ms.p50": (statistics.median(round_ms), "ms"),
        "round_ms.p90": (stats.tail_percentile(round_ms, 90), "ms"),
        # Construction (the median, not this trainer's single sample) plus
        # training up to the first round at or below the loss target.
        "time_to_target_s": (setup_s + _to_target(inputs, records, gaps), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "wire_bytes_per_round": (trainer.tracker.total_bytes / len(records), "B"),
        "final_accuracy": (accuracies[-1], "fraction"),
    }
    outcome.samples = {
        "rounds": len(records),
        "round_ms": len(round_ms),
        "setup_s": setup_samples,
        "rounds_cpu_s": timer.raw_seconds(),
        "rounds_rescaled_s": sum(gaps),
        "drive_wall_s": wall,
        "probe_ms": 1000.0 * statistics.median(probe.samples),
    }
    outcome.passed += 1


def _fingerprint(trainer, records, accuracies) -> tuple:
    """Everything the traced run must reproduce bit for bit."""
    return (
        [round_trace_entry(r) for r in records],
        server_state_sha(trainer),
        trainer.tracker.total_bytes,
        accuracies,
    )


def run_traced(
    outcome: Outcome, name: str, seed: int, seconds: float, scale: str = "full"
) -> None:
    """The per-layer metrics of one workload, from a verified traced run."""
    inputs = workloads.build_inputs(name, seed, scale)
    warm_up(inputs)
    rss_setup_mb = peak_rss_mb()

    outcome.attempted += 1
    trainer = workloads.make_trainer(inputs)
    untraced = RoundTimer(Probe())
    trainer.add_round_observer(untraced)
    untraced.start()
    records, accuracies = workloads.drive(trainer, inputs, seconds=seconds / 2)
    check_outputs(trainer, inputs, records, accuracies[-1])
    reference = _fingerprint(trainer, records, accuracies)
    outcome.passed += 1
    del trainer
    gc.collect()

    outcome.attempted += 1
    tracer = Tracer(CLOCK)
    probe = Probe()
    patcher = install(tracer, type(inputs.model))
    try:
        trainer, _ = timed(probe, lambda: workloads.make_trainer(inputs))
        setup = dict(tracer.totals)
        setup_scale = probe.scale()
        tracer.reset()
        probe.samples.clear()
        # The probe runs inside trainer.run (from the round observer); as a
        # span of its own it stays out of the trainer's self time.
        traced = RoundTimer(tracer.wrap("benchmark.probe", probe))
        trainer.add_round_observer(traced)
        traced.start()
        records, accuracies = workloads.drive(trainer, inputs, rounds=len(records))
    finally:
        patcher.restore()
    check_outputs(trainer, inputs, records, accuracies[-1])
    if _fingerprint(trainer, records, accuracies) != reference:
        raise CheckFailed("the traced run diverged from the untraced run")
    outcome.passed += 1

    untraced_s, traced_s = sum(untraced.gaps()), sum(traced.gaps())
    outcome.metrics = layer_metrics(
        tracer,
        setup,
        trainer,
        records,
        time_scale=probe.scale(),
        setup_scale=setup_scale,
        rss_setup_mb=rss_setup_mb,
        overhead=untraced_s / traced_s,
    )
    outcome.samples = {
        "rounds": len(records),
        "run_calls": tracer.get("trainer.run").calls,
        "untraced_rescaled_s": untraced_s,
        "traced_rescaled_s": traced_s,
        "traced_cpu_s": traced.raw_seconds(),
    }


def layer_metrics(
    tracer,
    setup,
    trainer,
    records,
    *,
    time_scale: float,
    setup_scale: float,
    rss_setup_mb: float,
    overhead: float,
) -> dict:
    """Per-round (and per-construction) figures from the trace totals.

    Span times are rescaled like the end-to-end figures: by the median probe
    of the traced drive, and by the probes around the traced construction.
    """
    rounds = len(records)

    def ms(name: str, self_time: bool = False) -> float:
        totals = tracer.get(name)
        seconds = totals.self_seconds if self_time else totals.seconds
        return 1000.0 * seconds * time_scale / rounds

    def calls(name: str) -> float:
        return tracer.get(name).calls / rounds

    def setup_s(name: str) -> float:
        return setup[name].seconds * setup_scale if name in setup else 0.0

    directed_links = 2 * len(trainer.topology.edges)
    delivered = sum(directed_links - r.stale_links for r in records)
    coordinates = sum(r.params_sent for r in records)
    timing = getattr(trainer.engine, "timing_summary", None)
    node_rounds = sum(timing()["node_rounds"].values()) if timing else 0
    round_self = tracer.get("trainer.run").self_seconds * time_scale
    return {
        "models.grad.ms": (ms("models.grad"), "ms"),
        "models.grad.calls": (calls("models.grad"), "calls"),
        "models.loss.ms": (ms("models.loss"), "ms"),
        "models.loss.calls": (calls("models.loss"), "calls"),
        "models.prepare.s": (setup_s("models.prepare"), "s"),
        "engine.mix.self_ms": (ms("engine.mix", self_time=True), "ms"),
        "engine.communicate.self_ms": (
            ms("engine.communicate", self_time=True),
            "ms",
        ),
        "engine.begin_run.ms": (ms("engine.begin_run"), "ms"),
        "engine.sync.ms": (ms("engine.sync"), "ms"),
        "engine.boundaries": (calls("trainer.run"), "calls"),
        "ape.ms": (ms("ape"), "ms"),
        "ape.calls": (calls("ape"), "calls"),
        "compression.compress.ms": (ms("compression.compress"), "ms"),
        "compression.compress.calls": (calls("compression.compress"), "calls"),
        "compression.hooks.ms": (ms("compression.hooks"), "ms"),
        "compression.hooks.calls": (calls("compression.hooks"), "calls"),
        "compression.sent_share": (
            coordinates / (delivered * trainer.model.n_params)
            if delivered
            else 0.0,
            "fraction",
        ),
        "network.ledger.ms": (ms("network.ledger"), "ms"),
        "network.ledger.calls": (calls("network.ledger"), "calls"),
        "network.channel.ms": (ms("network.channel"), "ms"),
        "network.channel.calls": (calls("network.channel"), "calls"),
        "network.delivered_share": (
            delivered / trainer.tracker.n_flows
            if trainer.tracker.n_flows
            else 0.0,
            "fraction",
        ),
        "faults.ms": (ms("faults"), "ms"),
        "faults.calls": (calls("faults"), "calls"),
        "weights.solve.s": (setup_s("weights.solve"), "s"),
        "weights.build.s": (setup_s("weights.build"), "s"),
        "invariants.ms": (ms("invariants"), "ms"),
        "invariants.calls": (calls("invariants"), "calls"),
        "semisync.communicate.self_ms": (
            ms("semisync.communicate", self_time=True),
            "ms",
        ),
        "semisync.node_rounds": (node_rounds / rounds, "calls"),
        "server.step.ms": (ms("server.step"), "ms"),
        "server.step.calls": (calls("server.step"), "calls"),
        "trainer.round.self_ms": (1000.0 * round_self / rounds, "ms"),
        "rss.setup_mb": (rss_setup_mb, "MiB"),
        "trace.overhead": (overhead, "ratio"),
    }
