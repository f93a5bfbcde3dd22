"""Bitwise contract of the stacked batch kernels.

Row ``i`` of ``batch_losses`` / ``batch_gradients`` must equal ``loss`` /
``gradient`` on shard ``i`` exactly — ``np.array_equal``, never a tolerance —
because the vectorized engine's digests must match the reference engine's,
which evaluates every node with the per-shard methods.

The per-shard reference is always called on a contiguous copy of row ``i``:
that is the layout every engine hands to ``loss``/``gradient``. (On a strided
row, such as a Fortran-ordered stack's, BLAS takes a different code path and
the per-shard result itself can change in the last bit.)
"""

import numpy as np
import pytest

from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier


def _logistic_shards(rng, sizes, n_features):
    return [
        (rng.normal(size=(n, n_features)), rng.integers(0, 2, size=n).astype(float))
        for n in sizes
    ]


def _mlp_shards(rng, sizes, layer_sizes):
    return [
        (
            rng.normal(size=(n, layer_sizes[0])),
            rng.integers(0, layer_sizes[-1], size=n),
        )
        for n in sizes
    ]


def _assert_rows_match(model, shards, params_stack):
    prepared = model.prepare_shards(shards)
    losses = model.batch_losses(params_stack, prepared)
    gradients = model.batch_gradients(params_stack, prepared)
    assert losses.shape == (len(shards),)
    assert gradients.shape == (len(shards), model.n_params)
    for i, (X, y) in enumerate(shards):
        params = np.array(params_stack[i], order="C")
        assert np.array_equal(losses[i], model.loss(params, X, y)), f"loss row {i}"
        assert np.array_equal(
            gradients[i], model.gradient(params, X, y)
        ), f"gradient row {i}"


def _logistic(fit_intercept=True):
    return LogisticRegression(6, regularization=1e-2, fit_intercept=fit_intercept)


def _mlp():
    return MLPClassifier((12, 7, 5, 3), regularization=1e-3)


UNIFORM = [10] * 24
RAGGED = [1, 4, 9, 4, 17, 9, 1, 17, 4, 30]


@pytest.mark.parametrize("sizes", [UNIFORM, RAGGED], ids=["uniform", "ragged"])
class TestLogisticBatchKernels:
    def test_rows_equal_per_shard(self, rng, sizes):
        model = _logistic()
        shards = _logistic_shards(rng, sizes, model.n_features)
        _assert_rows_match(model, shards, rng.normal(size=(len(sizes), model.n_params)))

    def test_without_intercept(self, rng, sizes):
        model = _logistic(fit_intercept=False)
        shards = _logistic_shards(rng, sizes, model.n_features)
        _assert_rows_match(model, shards, rng.normal(size=(len(sizes), model.n_params)))

    def test_row_slice_of_wider_buffer(self, rng, sizes):
        # The engine passes the node rows of its (N + E, d) state stack.
        model = _logistic()
        shards = _logistic_shards(rng, sizes, model.n_features)
        buffer = rng.normal(size=(len(sizes) + 7, model.n_params))
        _assert_rows_match(model, shards, buffer[: len(sizes)])

    def test_fortran_ordered_params(self, rng, sizes):
        model = _logistic()
        shards = _logistic_shards(rng, sizes, model.n_features)
        stack = np.asfortranarray(rng.normal(size=(len(sizes), model.n_params)))
        _assert_rows_match(model, shards, stack)


@pytest.mark.parametrize("sizes", [UNIFORM, RAGGED], ids=["uniform", "ragged"])
class TestMLPBatchKernels:
    def test_rows_equal_per_shard(self, rng, sizes):
        model = _mlp()
        shards = _mlp_shards(rng, sizes, model.layer_sizes)
        stack = np.stack([model.init_params(seed=i) for i in range(len(sizes))])
        _assert_rows_match(model, shards, stack)

    def test_row_slice_of_wider_buffer(self, rng, sizes):
        model = _mlp()
        shards = _mlp_shards(rng, sizes, model.layer_sizes)
        buffer = 0.3 * rng.normal(size=(len(sizes) + 7, model.n_params))
        _assert_rows_match(model, shards, buffer[: len(sizes)])

    def test_fortran_ordered_params(self, rng, sizes):
        model = _mlp()
        shards = _mlp_shards(rng, sizes, model.layer_sizes)
        stack = np.asfortranarray(0.3 * rng.normal(size=(len(sizes), model.n_params)))
        _assert_rows_match(model, shards, stack)


@pytest.mark.parametrize("model", [_logistic(), _mlp()], ids=["logistic", "mlp"])
def test_single_shard(rng, model):
    if isinstance(model, MLPClassifier):
        shards = _mlp_shards(rng, [8], model.layer_sizes)
    else:
        shards = _logistic_shards(rng, [8], model.n_features)
    _assert_rows_match(model, shards, 0.3 * rng.normal(size=(1, model.n_params)))


def test_logistic_designs_are_views_of_one_stack_per_group(rng):
    model = _logistic()
    prepared = model.prepare_shards(_logistic_shards(rng, RAGGED, model.n_features))
    stacks = [stack for _rows, stack, _signed in prepared.groups]
    assert [stack.shape[1] for stack in stacks] == sorted(set(RAGGED))
    assert all(stack.flags.c_contiguous for stack in stacks)
    for design, n in zip(prepared.designs, RAGGED):
        assert design.shape == (n, model.n_params)
        assert any(np.shares_memory(design, stack) for stack in stacks)
