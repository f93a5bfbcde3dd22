import pytest

from perfbench.trace import Patcher, Tracer, install


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf()
        clock.now += 1.0
        leaf()

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.now += 3.0
        middle()

    tracer.wrap("outer", outer)()

    outer_totals = tracer.get("outer")
    assert (outer_totals.calls, outer_totals.seconds) == (1, 9.0)
    # Only the direct child's span is subtracted, not the grandchildren again.
    assert outer_totals.self_seconds == 3.0
    middle_totals = tracer.get("middle")
    assert (middle_totals.seconds, middle_totals.self_seconds) == (6.0, 2.0)
    leaf_totals = tracer.get("leaf")
    assert (leaf_totals.calls, leaf_totals.seconds, leaf_totals.self_seconds) == (
        2,
        4.0,
        4.0,
    )


def test_same_name_nesting_is_one_call():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 1.0

    inner = tracer.wrap("compress", inner)

    def outer():
        clock.now += 1.0
        inner()

    tracer.wrap("compress", outer)()
    totals = tracer.get("compress")
    assert (totals.calls, totals.seconds, totals.self_seconds) == (1, 2.0, 2.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.get("boom").calls == 1
    tracer.reset()  # no span left open
    assert tracer.get("boom").calls == 0


def test_unfired_span_reads_zero():
    totals = Tracer().get("never")
    assert (totals.calls, totals.seconds, totals.self_seconds) == (0, 0.0, 0.0)


def test_patcher_restores_own_and_inherited_attributes():
    class Base:
        def method(self):
            return "base"

    class Sub(Base):
        def own(self):
            return "own"

    original_own = vars(Sub)["own"]
    patcher = Patcher()
    patcher.replace(Sub, "own", lambda self: "patched")
    patcher.replace(Sub, "method", lambda self: "patched")
    assert Sub().own() == Sub().method() == "patched"
    patcher.restore()
    assert vars(Sub)["own"] is original_own
    assert "method" not in vars(Sub)
    assert Sub().method() == "base"


def _program_namespaces(model_class):
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

    owners = [
        trainer_module,
        trainer_module.SNAPTrainer,
        APESchedule,
        SemiSyncEngine,
        ReferenceEngine,
        VectorizedEngine,
        EdgeServer,
        FaultPlan,
        Channel,
        CommunicationCostTracker,
        InvariantMonitor,
        *model_class.__mro__,
    ]
    for base in (Compressor, CorruptionModel):
        pending = [base]
        while pending:
            cls = pending.pop()
            owners.append(cls)
            pending.extend(cls.__subclasses__())
    return owners


def test_install_then_restore_leaves_the_program_untouched():
    from repro.models.mlp import MLPClassifier

    owners = _program_namespaces(MLPClassifier)
    before = [dict(vars(owner)) for owner in owners]
    patcher = install(Tracer(), MLPClassifier)
    changed = [
        owner
        for owner, saved in zip(owners, before)
        if any(vars(owner).get(k) is not v for k, v in saved.items())
    ]
    assert len(changed) > 10
    patcher.restore()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is saved[k] for k in saved), owner
