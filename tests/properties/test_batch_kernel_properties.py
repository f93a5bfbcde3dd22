"""Property-based tests for the array forms of the communication round.

The vectorized engine runs every scheme through ``Compressor``'s batch
protocol and charges ``encoded_update_bytes_many``; the reference engine
runs the per-edge ``compress`` / ``bytes_on_wire`` / ``end_round`` calls
and the scalar ``encoded_update_bytes``. These properties pin the two
forms to each other element for element, including zero-drift rows, exact
ties at the APE threshold and denormal drifts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression import (
    APECompressor,
    EdgeState,
    ErrorFeedback,
    RandomKCompressor,
    TernGradCompressor,
    TopKCompressor,
    UniformQuantizer,
)
from repro.core.ape import APEScheduleBank
from repro.exceptions import ProtocolError
from repro.network.frames import encoded_update_bytes, encoded_update_bytes_many

bit_widths = st.one_of(st.none(), st.integers(min_value=2, max_value=16))


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=10_000),
    drawn=st.lists(st.integers(min_value=0, max_value=10_000), max_size=6),
    bits=bit_widths,
)
def test_frame_bytes_many_equals_scalar(total, drawn, bits):
    """Around the ``d > 2M + 1`` crossover and at both ends of ``M``."""
    special = [0, total, (total - 1) // 2, total // 2]
    unsent = [m for m in special if 0 <= m <= total]
    unsent += [m % (total + 1) for m in drawn]
    sizes = encoded_update_bytes_many(total, np.asarray(unsent), bits)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [encoded_update_bytes(total, m, bits) for m in unsent]


def test_frame_bytes_many_rejects_impossible_counts():
    with pytest.raises(ProtocolError):
        encoded_update_bytes_many(4, np.array([0, 5]))
    with pytest.raises(ProtocolError):
        encoded_update_bytes_many(4, np.array([-1, 2]))
    with pytest.raises(ProtocolError):
        encoded_update_bytes_many(4, np.array([1]), bits=1)
    assert encoded_update_bytes_many(4, np.array([], dtype=np.int64)).size == 0


#: Zero, denormal and ordinary magnitudes: zero-drift coordinates, denormal
#: drifts and exact magnitude ties all come out of this pool.
values = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 2.5e-320, 0.5, -0.5, 1.0, -3.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=True),
)


@st.composite
def rounds(draw):
    """A round: node parameters, K directed-edge rows and their references.

    Each row's reference is its source's parameters plus a drift that is
    zero for a whole row, zero per coordinate, denormal, or ordinary.
    """
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=9))
    params = draw(arrays(np.float64, (n_nodes, d), elements=values))
    n_rows = draw(st.integers(min_value=1, max_value=8))
    sources = np.asarray(
        draw(st.lists(st.integers(0, n_nodes - 1), min_size=n_rows, max_size=n_rows)),
        dtype=np.int64,
    )
    drifts = draw(arrays(np.float64, (n_rows, d), elements=values))
    zero_rows = np.asarray(
        draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    )
    drifts[zero_rows] = 0.0
    references = params[sources] - drifts
    active = np.asarray(
        draw(st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes))
    )
    picked = np.asarray(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    eligible = picked & active[sources]
    ties = np.asarray(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    return params, sources, references, active, eligible, ties


def _bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (a, b)


def _assert_rows_match(batch, payloads, compressor, d):
    """Each eligible row equals its per-edge payload scattered into ``d``."""
    for row, payload in payloads.items():
        np.testing.assert_array_equal(np.flatnonzero(batch.mask[row]), payload.indices)
        _bitwise_equal(batch.values[row][payload.indices], payload.values)
        assert batch.sizes[row] == compressor.bytes_on_wire(payload, d)


def _bank(n_nodes, warmup):
    bank = APEScheduleBank(
        n_nodes, initial_threshold=0.1, growth=1.05, stage_iterations=3, decay=0.9
    )
    for suppressed in warmup:
        bank.record_rounds(np.ones(n_nodes, dtype=bool), np.full(n_nodes, suppressed))
    return bank


@settings(max_examples=150, deadline=None)
@given(
    case=rounds(),
    kind=st.sampled_from(["ape", "changed_only", "dense"]),
    warmup=st.lists(st.sampled_from([0.0, 1e-3, 0.5]), max_size=4),
)
def test_ape_batch_round_equals_per_edge_round(case, kind, warmup):
    """Masks, values, sizes, suppressed statistics and stage advances."""
    params, sources, references, active, eligible, ties = case
    n_nodes, d = params.shape
    if kind == "ape":
        batch_bank, edge_bank = _bank(n_nodes, warmup), _bank(n_nodes, warmup)
        batcher = APECompressor(schedule=batch_bank[0])
        per_node = [APECompressor(schedule=edge_bank[i]) for i in range(n_nodes)]
    else:
        dense = kind == "dense"
        batcher = APECompressor(dense=dense)
        per_node = [APECompressor(dense=dense) for _ in range(n_nodes)]

    ctx = batcher.begin_batch(params, active, 0)
    if kind != "dense":
        # Exact ties: a zero parameter against a reference of -threshold
        # drifts by exactly the threshold, which must be suppressed.
        for row in np.flatnonzero(ties):
            zero = params[sources[row]] == 0.0
            references[row, zero] = -ctx["threshold"][sources[row]]

    node_ctx = {
        int(i): per_node[i].begin_round(params[i], 0) for i in np.flatnonzero(active)
    }
    payloads = {}
    for row in np.flatnonzero(eligible):
        node = int(sources[row])
        state = EdgeState(node, row, reference=references[row])
        payloads[row] = per_node[node].compress(params[node], state, node_ctx[node])

    batch = batcher.compress_batch(params, sources, references, eligible, ctx, None)
    _assert_rows_match(batch, payloads, batcher, d)

    restart = batcher.end_batch(ctx, eligible)
    expected = np.zeros(n_nodes, dtype=bool)
    for node, node_state in node_ctx.items():
        expected[node] = per_node[node].end_round(node_state)
    np.testing.assert_array_equal(restart, expected)
    if kind == "ape":
        for column in ("threshold", "accumulated", "iterations_in_stage", "stage"):
            _bitwise_equal(getattr(batch_bank, column), getattr(edge_bank, column))


k_values = st.integers(min_value=1, max_value=4)
quant_bits = st.integers(min_value=2, max_value=16)
compressors = st.one_of(
    st.builds(TopKCompressor, k=k_values),
    st.builds(UniformQuantizer, bits=quant_bits),
    st.builds(RandomKCompressor, k=k_values),
    st.builds(TernGradCompressor),
    st.builds(ErrorFeedback, st.builds(UniformQuantizer, bits=quant_bits)),
    st.builds(ErrorFeedback, st.builds(RandomKCompressor, k=k_values)),
)


@settings(max_examples=300, deadline=None)
@given(case=rounds(), compressor=compressors)
def test_compress_batch_equals_per_edge_compress(case, compressor):
    """The array kernels and the per-edge default, row by row."""
    params, sources, references, active, eligible, _ = case
    n_rows, d = references.shape

    def states():
        return [
            compressor.make_edge_state(d, int(sources[row]), row, seed=3)
            for row in range(n_rows)
        ]

    payloads = {}
    per_edge_states = states()
    for row in np.flatnonzero(eligible):
        state = per_edge_states[row]
        state.reference = references[row]
        payloads[row] = compressor.compress(params[sources[row]], state, {})

    batch_states = states()
    ctx = compressor.begin_batch(params, active, 0)
    batch = compressor.compress_batch(
        params, sources, references, eligible, ctx, batch_states.__getitem__
    )
    _assert_rows_match(batch, payloads, compressor, d)
    assert not compressor.end_batch(ctx, eligible).any()
    for row in np.flatnonzero(eligible):
        if per_edge_states[row].rng is not None:
            assert (
                batch_states[row].rng.bit_generator.state
                == per_edge_states[row].rng.bit_generator.state
            )

