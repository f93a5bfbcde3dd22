"""Property-based tests for the APE threshold schedule's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ape import APESchedule, APEScheduleBank


@st.composite
def schedules(draw):
    return APESchedule(
        initial_threshold=draw(st.floats(1e-6, 10.0)),
        growth=draw(st.floats(1.0, 1.5)),
        stage_iterations=draw(st.integers(1, 30)),
        decay=draw(st.floats(0.1, 0.99)),
        epsilon=draw(st.floats(0.0, 1e-3)),
    )


suppressed_sequences = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=120)


@given(schedules(), suppressed_sequences)
@settings(max_examples=80, deadline=None)
def test_threshold_never_increases(schedule, suppressed):
    previous = schedule.threshold
    for value in suppressed:
        schedule.record_round(value)
        assert schedule.threshold <= previous + 1e-15
        previous = schedule.threshold


@given(schedules(), suppressed_sequences)
@settings(max_examples=80, deadline=None)
def test_send_threshold_bounded_by_stage_budget(schedule, suppressed):
    for value in suppressed:
        # line-4 guarantee: per-round allowance times the stage length never
        # exceeds the stage budget (growth >= 1).
        assert (
            schedule.send_threshold * schedule.stage_iterations
            <= schedule.threshold + 1e-12
        )
        schedule.record_round(value)


@given(schedules(), suppressed_sequences)
@settings(max_examples=80, deadline=None)
def test_stage_index_monotone_and_accumulator_resets(schedule, suppressed):
    previous_stage = schedule.stage
    for value in suppressed:
        schedule.record_round(value)
        assert schedule.stage >= previous_stage
        if schedule.stage > previous_stage:
            assert schedule.accumulated_error == 0.0
        previous_stage = schedule.stage


@given(schedules())
@settings(max_examples=50, deadline=None)
def test_quiet_schedule_eventually_exhausts(schedule):
    """With zero suppression, time-boxed stages must drive T below epsilon
    (when epsilon > 0) within the analytically required number of rounds:
    one stage per ``max_stage_iterations`` rounds, and
    ``log(eps / T0) / log(decay)`` stages to decay past epsilon."""
    import math

    if schedule.epsilon == 0.0 or not schedule.active:
        return
    # log(eps) - log(T0) avoids the ratio underflowing to 0 for denormal eps.
    stages_needed = (
        math.ceil(
            (math.log(schedule.epsilon) - math.log(schedule.initial_threshold))
            / math.log(schedule.decay)
        )
        + 1
    )
    budget = stages_needed * schedule.max_stage_iterations + 1
    for _ in range(budget):
        if not schedule.active:
            break
        schedule.record_round(0.0)
    assert not schedule.active


#: Thresholds a few ulp above zero: 0.9 * 2 ulp rounds back to 2 ulp, the
#: "decay fails to shrink" case that must exhaust the schedule.
DENORMALS = [5e-324, 1e-323, 1.5e-323, 2e-323, 1e-322]


@st.composite
def bank_cases(draw):
    """Schedule constants plus a run of (active mask, suppressed) rounds."""
    n = draw(st.integers(1, 8))
    initial = draw(st.sampled_from(DENORMALS) | st.floats(1e-6, 10.0))
    stage_iterations = draw(st.integers(1, 6))
    constants = dict(
        initial_threshold=initial,
        growth=draw(st.floats(1.0, 1.5)),
        stage_iterations=stage_iterations,
        decay=draw(st.floats(0.1, 0.99)),
        # Up to the initial budget itself, so schedules exhaust mid-run (or
        # start exhausted when epsilon == T_0).
        epsilon=draw(
            st.sampled_from([0.0, 5e-324]) | st.floats(0.0, initial)
        ),
        max_stage_iterations=stage_iterations + draw(st.integers(0, 4)),
    )
    suppressed = st.sampled_from([0.0]) | st.floats(0.0, 2.0 * initial) | st.floats(
        0.0, 5.0
    )
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=n, max_size=n),
                st.lists(suppressed, min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return n, constants, rounds


def _state(schedule):
    return repr(sorted(schedule.state_dict().items()))


@given(bank_cases())
@settings(max_examples=150, deadline=None)
def test_bank_step_equals_independent_scalar_schedules(case):
    n, constants, rounds = case
    bank = APEScheduleBank(n, **constants)
    scalars = [APESchedule(**constants) for _ in range(n)]
    for mask, suppressed in rounds:
        assert np.array_equal(
            bank.send_thresholds(),
            np.array([schedule.send_threshold for schedule in scalars]),
        )
        assert [row.send_threshold for row in bank] == [
            schedule.send_threshold for schedule in scalars
        ]
        stages_before = [schedule.stage for schedule in scalars]
        for node in np.flatnonzero(mask):
            scalars[node].record_round(suppressed[node])
        advanced = bank.record_rounds(np.array(mask), np.array(suppressed))
        assert [_state(row) for row in bank] == [_state(s) for s in scalars]
        assert advanced.tolist() == [
            schedule.stage != before
            for schedule, before in zip(scalars, stages_before)
        ]


@given(bank_cases(), st.data())
@settings(max_examples=50, deadline=None)
def test_bank_rejects_negative_suppression_before_mutating(case, data):
    n, constants, rounds = case
    bank = APEScheduleBank(n, **constants)
    for mask, suppressed in rounds:
        bank.record_rounds(np.array(mask), np.array(suppressed))
    node = data.draw(st.integers(0, n - 1))
    suppressed = np.zeros(n)
    suppressed[node] = -data.draw(st.floats(1e-300, 5.0))
    mask = np.zeros(n, dtype=bool)
    mask[node] = True
    before = [_state(row) for row in bank]
    with pytest.raises(ValueError):
        bank.record_rounds(mask, suppressed)
    assert [_state(row) for row in bank] == before
    with pytest.raises(ValueError):
        bank[node].record_round(suppressed[node])
