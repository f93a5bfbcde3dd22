"""Observation-only per-layer tracing from outside the program.

The benchmark times calls into each layer's public functions by wrapping
them on their classes (or in the module namespace that calls them) for the
duration of one traced run, then restoring the originals. Nothing inside
``src/`` is changed or instrumented, and the wrappers only read the clock:
arguments and return values pass through untouched, so a traced run is
bitwise identical to an untraced one.

Every span is aggregated per name rather than kept as one record per call:
hot per-node and per-flow boundaries (APE schedules, compressor hooks,
per-flow ledger records) fire tens of thousands of times per round. Each
name keeps its call count, inclusive time, and the time its child spans
covered, so ``self = inclusive - children``. A span nested directly inside
a span of the same name (a base-class method delegating to an overridden
one) is folded into the outer call instead of being counted twice.
"""

from __future__ import annotations

import functools
import time
from typing import Callable


class SpanTotals:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("calls", "seconds", "child_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.child_seconds = 0.0

    @property
    def self_seconds(self) -> float:
        """Inclusive time minus the time covered by child spans."""
        return self.seconds - self.child_seconds


class Tracer:
    """Span aggregator: per-name calls, inclusive time and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals: dict[str, SpanTotals] = {}
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self._stack: list[list] = []

    def get(self, name: str) -> SpanTotals:
        """The totals for ``name`` (all zero if it never fired)."""
        return self.totals.get(name) or SpanTotals()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.totals.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as a span called ``name``."""
        stack = self._stack
        totals = self.totals
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = SpanTotals()
                entry.calls += 1
                entry.seconds += elapsed
                entry.child_seconds += frame[1]

        return traced


class Patcher:
    """Installs attribute replacements and restores every original."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        # Read from __dict__ so a class attribute inherited from a base is
        # restored by deletion, not by pinning a copy on the subclass.
        self._saved.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


_MISSING = object()


def _trace_method(patcher: Patcher, tracer: Tracer, cls, method: str, name: str):
    """Wrap ``cls.method`` (a function or a property) if ``cls`` defines it."""
    original = vars(cls).get(method)
    if original is None:
        return
    if isinstance(original, property):
        patcher.replace(
            cls,
            method,
            property(tracer.wrap(name, original.fget), original.fset, original.fdel),
        )
    else:
        patcher.replace(cls, method, tracer.wrap(name, original))


def _subclasses(cls) -> list:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def install(tracer: Tracer, model_class) -> Patcher:
    """Wrap every traced layer boundary; returns the patcher that undoes it.

    ``model_class`` is the workload model's class (the models layer has one
    implementation per model). Every other boundary is wrapped on the
    classes or module namespaces the round loop actually calls through.
    """
    import repro.core.trainer as trainer_module
    from repro.compression.base import Compressor
    from repro.core.ape import APESchedule
    from repro.core.async_engine import SemiSyncEngine
    from repro.core.engine import ReferenceEngine, VectorizedEngine
    from repro.core.server import EdgeServer
    from repro.faults.models import CorruptionModel
    from repro.faults.plan import FaultPlan
    from repro.network.channel import Channel
    from repro.network.cost import CommunicationCostTracker
    from repro.testing.invariants import InvariantMonitor

    patcher = Patcher()
    try:
        for method, name in (
            ("batch_gradients", "models.grad"),
            ("gradient", "models.grad"),
            ("batch_losses", "models.loss"),
            ("loss", "models.loss"),
            ("prepare_shards", "models.prepare"),
            ("gradient_lipschitz_bound", "models.prepare"),
        ):
            for cls in model_class.__mro__:
                _trace_method(patcher, tracer, cls, method, name)

        for cls in (VectorizedEngine, ReferenceEngine, SemiSyncEngine):
            communicate = (
                "semisync.communicate"
                if cls is SemiSyncEngine
                else "engine.communicate"
            )
            for method, name in (
                ("begin_run", "engine.begin_run"),
                ("step_round", "engine.mix"),
                ("communicate", communicate),
                ("mean_local_loss", "engine.loss"),
                ("stacked_params", "engine.stacked"),
                ("sync_to_servers", "engine.sync"),
            ):
                _trace_method(patcher, tracer, cls, method, name)

        _trace_method(patcher, tracer, APESchedule, "record_round", "ape")
        _trace_method(patcher, tracer, APESchedule, "send_threshold", "ape")

        for cls in _subclasses(Compressor):
            for method in ("compress", "compress_batch"):
                _trace_method(patcher, tracer, cls, method, "compression.compress")
            for method in (
                "begin_round",
                "bytes_on_wire",
                "payload_delivered",
                "payload_dropped",
                "end_round",
            ):
                _trace_method(patcher, tracer, cls, method, "compression.hooks")

        for method in ("record", "record_many"):
            _trace_method(
                patcher, tracer, CommunicationCostTracker, method, "network.ledger"
            )
        for method in ("send", "round_failed_links"):
            _trace_method(patcher, tracer, Channel, method, "network.channel")

        for method in ("failed_nodes", "failed_links"):
            _trace_method(patcher, tracer, FaultPlan, method, "faults")
        for cls in _subclasses(CorruptionModel):
            _trace_method(patcher, tracer, cls, "corrupted", "faults")

        for function, name in (
            ("optimize_weight_matrix", "weights.solve"),
            ("metropolis_weights", "weights.build"),
            ("check_weight_matrix", "weights.build"),
            ("safe_step_size", "weights.build"),
        ):
            patcher.replace(
                trainer_module,
                function,
                tracer.wrap(name, getattr(trainer_module, function)),
            )

        for method in ("on_round", "on_run_start"):
            _trace_method(patcher, tracer, InvariantMonitor, method, "invariants")
        _trace_method(patcher, tracer, EdgeServer, "step", "server.step")
        _trace_method(patcher, tracer, trainer_module.SNAPTrainer, "run", "trainer.run")
    except BaseException:
        patcher.restore()
        raise
    return patcher
