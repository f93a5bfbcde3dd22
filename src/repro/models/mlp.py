"""Fully connected multilayer perceptron with hand-derived backpropagation.

The paper's testbed model is "a 3-layer fully connected conventional neural
network" with 784 inputs, 30 hidden perceptrons and 10 outputs, trained on
MNIST. :class:`MLPClassifier` generalizes that to any layer-size list while
keeping the same full-batch, exact-gradient contract the consensus engines
require. Hidden activations are tanh (smooth, so the bounded-curvature
assumption behind the APE analysis in Section IV-C is reasonable); the output
layer is softmax with cross-entropy loss.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.models.base import Model, group_by_sample_count
from repro.types import Params, SeedLike
from repro.utils.rng import make_rng
from repro.utils.validation import check_non_negative


class _PreparedMLPShards:
    """Same-sample-count ``(rows, X_stack, labels_stack)`` groups of the shards."""

    __slots__ = ("n_shards", "groups")

    def __init__(self, n_shards, groups):
        self.n_shards = n_shards
        self.groups = groups


class MLPClassifier(Model):
    """Feed-forward classifier: tanh hidden layers, softmax cross-entropy output.

    Parameters
    ----------
    layer_sizes:
        Sizes of every layer including input and output, e.g. the paper's
        testbed network is ``(784, 30, 10)``. At least two entries.
    regularization:
        L2 penalty applied to all weights and biases.
    """

    def __init__(self, layer_sizes: Sequence[int], regularization: float = 1e-4):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ConfigurationError(
                f"layer_sizes needs at least input and output, got {sizes}"
            )
        if any(s <= 0 for s in sizes):
            raise ConfigurationError(f"layer sizes must be positive, got {sizes}")
        self.layer_sizes = sizes
        self.regularization = check_non_negative("regularization", regularization)
        self._shapes: list[tuple[tuple[int, int], tuple[int]]] = [
            ((sizes[i], sizes[i + 1]), (sizes[i + 1],)) for i in range(len(sizes) - 1)
        ]
        # Flat-vector layout per layer: (weight offset, rows, cols, bias
        # offset, bias length) — lets the batched kernels slice weights and
        # write gradients in place without unpack()/pack() per node.
        self._layout: list[tuple[int, int, int, int, int]] = []
        offset = 0
        for (rows, cols), (bias_len,) in self._shapes:
            self._layout.append((offset, rows, cols, offset + rows * cols, bias_len))
            offset += rows * cols + bias_len

    @property
    def n_classes(self) -> int:
        """Output dimensionality (number of classes)."""
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        return sum(w[0] * w[1] + b[0] for w, b in self._shapes)

    # -- parameter packing ---------------------------------------------------

    def unpack(self, params: Params) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split the flat vector into per-layer ``(weight, bias)`` views."""
        params = self.check_params(params)
        layers = []
        offset = 0
        for (rows, cols), (bias_len,) in self._shapes:
            weight = params[offset : offset + rows * cols].reshape(rows, cols)
            offset += rows * cols
            bias = params[offset : offset + bias_len]
            offset += bias_len
            layers.append((weight, bias))
        return layers

    def pack(self, layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> Params:
        """Flatten per-layer ``(weight, bias)`` pairs into one vector."""
        pieces = []
        for weight, bias in layers:
            pieces.append(np.asarray(weight, dtype=float).reshape(-1))
            pieces.append(np.asarray(bias, dtype=float).reshape(-1))
        params = np.concatenate(pieces)
        return self.check_params(params)

    def init_params(self, seed: SeedLike = None, scale: float | None = None) -> Params:
        """Xavier/Glorot initialization (per-layer ``1/sqrt(fan_in)`` scaling)."""
        rng = make_rng(seed)
        layers = []
        for (rows, cols), (bias_len,) in self._shapes:
            std = scale if scale is not None else 1.0 / np.sqrt(rows)
            layers.append(
                (rng.normal(0.0, std, size=(rows, cols)), np.zeros(bias_len))
            )
        return self.pack(layers)

    # -- forward / backward ----------------------------------------------------

    def _check_inputs(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.layer_sizes[0]:
            raise DataError(
                f"X has {X.shape[1]} features, model expects {self.layer_sizes[0]}"
            )
        return X

    def _check_labels(self, y: np.ndarray) -> np.ndarray:
        labels = np.asarray(y).astype(np.int64)
        if not np.array_equal(labels, np.asarray(y)):
            raise DataError("labels must be integers")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise DataError(
                f"labels must lie in 0..{self.n_classes - 1}, got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        return labels

    def _forward(self, params: Params, X: np.ndarray):
        """Return (activations per layer, log-probabilities)."""
        layers = self.unpack(params)
        activations = [X]
        hidden = X
        for weight, bias in layers[:-1]:
            hidden = np.tanh(hidden @ weight + bias)
            activations.append(hidden)
        weight, bias = layers[-1]
        logits = hidden @ weight + bias
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return activations, log_probs

    def loss(self, params: Params, X: np.ndarray, y: np.ndarray) -> float:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        X = self._check_inputs(X)
        labels = self._check_labels(y)
        return self._loss_impl(params, X, labels)

    def _loss_impl(self, params: Params, X: np.ndarray, labels: np.ndarray) -> float:
        _, log_probs = self._forward(params, X)
        data_term = -float(np.mean(log_probs[np.arange(len(labels)), labels]))
        return data_term + 0.5 * self.regularization * float(params @ params)

    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        X = self._check_inputs(X)
        labels = self._check_labels(y)
        return self._gradient_impl(params, X, labels)

    def _gradient_impl(
        self, params: Params, X: np.ndarray, labels: np.ndarray
    ) -> Params:
        layers = self.unpack(params)
        activations, log_probs = self._forward(params, X)
        n = X.shape[0]

        # Output-layer delta: softmax probabilities minus one-hot labels.
        delta = np.exp(log_probs)
        delta[np.arange(n), labels] -= 1.0
        delta /= n

        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
        for layer_index in range(len(layers) - 1, -1, -1):
            weight, _bias = layers[layer_index]
            upstream = activations[layer_index]
            grads[layer_index] = (upstream.T @ delta, delta.sum(axis=0))
            if layer_index > 0:
                # Propagate through tanh: derivative is 1 - activation^2.
                delta = (delta @ weight.T) * (1.0 - upstream**2)

        flat = self.pack(grads)
        return flat + self.regularization * params

    # -- batched multi-shard path (vectorized engine) ---------------------------

    def prepare_shards(self, shards):
        """Cache validated shards, grouped by sample count for batched kernels.

        Shards with the same number of samples are stacked into C-contiguous
        ``(group, samples, features)`` blocks so one forward/backward pass
        serves the whole group: every product is one stacked ``np.matmul``
        and every elementwise op — tanh, softmax, the tanh' chain-rule
        factor — runs once per group instead of once per node. For each
        stacked item numpy issues the same cblas call as the per-node 2-D
        product, provided the item's strides are BLAS-compatible (a non-BLAS
        layout falls back to numpy's own loop, whose summation order
        differs); the kernels therefore only pass C-contiguous stacks, which
        keeps them bitwise identical to :meth:`gradient` and :meth:`loss`.
        """
        validated = []
        for X, y in shards:
            X, y = self.check_batch(X, y)
            X = self._check_inputs(X)
            labels = self._check_labels(y)
            validated.append((np.ascontiguousarray(X), labels))
        groups = []
        for rows, members in group_by_sample_count(validated):
            X_stack = np.stack([validated[i][0] for i in members])
            labels_stack = np.stack([validated[i][1] for i in members])
            groups.append((rows, X_stack, labels_stack))
        return _PreparedMLPShards(len(validated), tuple(groups))

    def _weights_view(self, stack: np.ndarray, layer: int) -> np.ndarray:
        """Layer ``layer``'s weight block of a ``(g, P)`` stack as ``(g, rows, cols)``.

        ``stack`` must be C-contiguous: the result is then a view (so it can
        also serve as an ``out=`` target) whose items have the strides
        :meth:`unpack` gives a single node's weight matrix.
        """
        offset, rows, cols, _bias_offset, _bias_len = self._layout[layer]
        return stack[:, offset : offset + rows * cols].reshape(-1, rows, cols)

    def _group_forward(self, params_group: np.ndarray, X_stack: np.ndarray):
        """Batched forward over one same-sample-count group.

        Returns (activations per layer as ``(g, m, width)`` stacks,
        log-probabilities).
        """
        activations = [X_stack]
        hidden = X_stack
        last = len(self._layout) - 1
        for layer, (_o, _r, _c, bias_offset, bias_len) in enumerate(self._layout):
            logits = np.matmul(hidden, self._weights_view(params_group, layer))
            logits += params_group[:, None, bias_offset : bias_offset + bias_len]
            if layer < last:
                hidden = np.tanh(logits)
                activations.append(hidden)
        shifted = logits - logits.max(axis=2, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
        return activations, log_probs

    def batch_losses(self, params_stack: np.ndarray, prepared) -> np.ndarray:
        params_stack = np.ascontiguousarray(params_stack)
        losses = np.empty(prepared.n_shards)
        for rows, X_stack, labels_stack in prepared.groups:
            params_group = params_stack[rows]
            _, log_probs = self._group_forward(params_group, X_stack)
            g, m, _ = X_stack.shape
            picked = log_probs[np.arange(g)[:, None], np.arange(m), labels_stack]
            reg_terms = np.matmul(params_group[:, None, :], params_group[:, :, None])
            losses[rows] = (
                -picked.mean(axis=1) + 0.5 * self.regularization * reg_terms[:, 0, 0]
            )
        return losses

    def batch_gradients(self, params_stack: np.ndarray, prepared) -> np.ndarray:
        params_stack = np.ascontiguousarray(params_stack)
        gradients = np.empty_like(params_stack)
        for rows, X_stack, labels_stack in prepared.groups:
            params_group = params_stack[rows]
            # C-contiguous either way, as _weights_view needs for out=.
            in_place = isinstance(rows, slice)
            grad_group = gradients if in_place else np.empty_like(params_group)
            activations, log_probs = self._group_forward(params_group, X_stack)
            g, m, _ = X_stack.shape
            delta = np.exp(log_probs)
            delta[np.arange(g)[:, None], np.arange(m), labels_stack] -= 1.0
            delta /= m
            for layer in range(len(self._layout) - 1, -1, -1):
                _o, _r, _c, bias_offset, bias_len = self._layout[layer]
                upstream = activations[layer]
                np.matmul(
                    upstream.transpose(0, 2, 1),
                    delta,
                    out=self._weights_view(grad_group, layer),
                )
                grad_group[:, bias_offset : bias_offset + bias_len] = delta.sum(axis=1)
                if layer > 0:
                    weights = self._weights_view(params_group, layer)
                    # Propagate through tanh: derivative is 1 - activation^2.
                    delta = np.matmul(delta, weights.transpose(0, 2, 1))
                    delta *= 1.0 - upstream**2
            grad_group += self.regularization * params_group
            if not in_place:
                gradients[rows] = grad_group
        return gradients

    def predict_proba(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""
        params = self.check_params(params)
        X = self._check_inputs(np.asarray(X, dtype=float))
        _, log_probs = self._forward(params, X)
        return np.exp(log_probs)

    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Integer class predictions."""
        return self.predict_proba(params, X).argmax(axis=1)

    def gradient_lipschitz_bound(self, X: np.ndarray) -> float:
        """Heuristic curvature bound for step-size selection.

        The MLP objective is nonconvex, so no global ``L_f`` exists; the
        value returned — the softmax-layer bound computed on the raw inputs —
        works well in practice for the shallow networks the paper uses and
        keeps the automatic step-size machinery uniform across models.
        """
        X = np.asarray(X, dtype=float)
        top_singular = float(np.linalg.norm(X, ord=2))
        return top_singular**2 / (2.0 * X.shape[0]) + self.regularization
