"""Binary logistic regression with L2 regularization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.models.base import Model, add_bias_column, group_by_sample_count
from repro.types import Params
from repro.utils.validation import check_non_negative, check_positive_int


class LogisticRegression(Model):
    """Mean negative log-likelihood of a Bernoulli model plus L2 penalty.

    .. math::

        f(w) = \\frac{1}{n} \\sum_i \\log(1 + e^{-y_i w^T x_i})
               + \\frac{\\lambda}{2}\\|w\\|^2

    Labels accepted in ``{0, 1}`` or ``{-1, +1}``; predictions in ``{0, 1}``.
    """

    def __init__(
        self,
        n_features: int,
        regularization: float = 1e-3,
        fit_intercept: bool = True,
    ):
        self.n_features = check_positive_int("n_features", n_features)
        self.regularization = check_non_negative("regularization", regularization)
        self.fit_intercept = bool(fit_intercept)

    @property
    def n_params(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    def _design(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.n_features:
            raise DataError(
                f"X has {X.shape[1]} features, model expects {self.n_features}"
            )
        return add_bias_column(X) if self.fit_intercept else X

    @staticmethod
    def _signed_labels(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        unique = np.unique(y)
        if np.all(np.isin(unique, (-1.0, 1.0))):
            return y
        if np.all(np.isin(unique, (0.0, 1.0))):
            return 2.0 * y - 1.0
        raise DataError(
            f"labels must be in {{-1,+1}} or {{0,1}}, got values {unique[:5]}"
        )

    def loss(self, params: Params, X: np.ndarray, y: np.ndarray) -> float:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        signed = self._signed_labels(y)
        margins = signed * (self._design(X) @ params)
        # log(1 + exp(-m)) computed stably via logaddexp(0, -m).
        data_term = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_term + 0.5 * self.regularization * float(params @ params)

    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        signed = self._signed_labels(y)
        design = self._design(X)
        margins = signed * (design @ params)
        # sigmoid(-m) = 1 / (1 + exp(m)), computed stably.
        weights = _stable_sigmoid(-margins)
        coefficients = -(weights * signed) / design.shape[0]
        return design.T @ coefficients + self.regularization * params

    # -- batched multi-shard path (vectorized engine) ---------------------------

    def prepare_shards(self, shards) -> "_PreparedLogisticShards":
        """Stack design matrices and signed labels per sample-count group.

        Shards with equal sample counts share one C-contiguous ``(g, n, d)``
        design stack; ``designs`` holds per-shard row views of those stacks,
        so each design is stored once.
        """
        validated = [self.check_batch(X, y) for X, y in shards]
        designs: list[np.ndarray] = [None] * len(validated)  # type: ignore[list-item]
        groups = []
        for rows, members in group_by_sample_count(validated):
            count = validated[members[0]][0].shape[0]
            design_stack = np.empty((len(members), count, self.n_params))
            signed_stack = np.empty((len(members), count))
            for j, index in enumerate(members):
                X, y = validated[index]
                design_stack[j] = self._design(X)
                signed_stack[j] = self._signed_labels(y)
                designs[index] = design_stack[j]
            groups.append((rows, design_stack, signed_stack))
        return _PreparedLogisticShards(tuple(designs), tuple(groups))

    @staticmethod
    def _margins_stack(
        params_group: np.ndarray, designs: np.ndarray, signed: np.ndarray
    ) -> np.ndarray:
        """Per-shard margins ``signed * (design @ params)`` as one (g, n) array.

        numpy runs a stacked ``matmul`` item by item, issuing for each item
        the same cblas ``gemv``/``dot`` call as the 2-D per-shard expression
        as long as the item's strides are BLAS-compatible; other layouts fall
        back to numpy's own loop, which sums in a different order. So every
        batched product here takes C-contiguous stacks only: the designs are
        stored that way and the evaluators make the parameter stack so.
        """
        return signed * np.matmul(designs, params_group[:, :, None])[:, :, 0]

    def batch_losses(
        self, params_stack: np.ndarray, prepared: "_PreparedLogisticShards"
    ) -> np.ndarray:
        params_stack = np.ascontiguousarray(params_stack)
        losses = np.empty(len(prepared.designs))
        for rows, designs, signed in prepared.groups:
            params_group = params_stack[rows]
            margins = self._margins_stack(params_group, designs, signed)
            data_terms = np.logaddexp(0.0, -margins).mean(axis=1)
            reg_terms = np.matmul(params_group[:, None, :], params_group[:, :, None])
            losses[rows] = data_terms + 0.5 * self.regularization * reg_terms[:, 0, 0]
        return losses

    def batch_gradients(
        self, params_stack: np.ndarray, prepared: "_PreparedLogisticShards"
    ) -> np.ndarray:
        params_stack = np.ascontiguousarray(params_stack)
        gradients = np.empty_like(params_stack)
        for rows, designs, signed in prepared.groups:
            params_group = params_stack[rows]
            margins = self._margins_stack(params_group, designs, signed)
            # sigmoid(-m) = 1 / (1 + exp(m)), computed stably.
            weights = _stable_sigmoid(-margins)
            coefficients = -(weights * signed) / designs.shape[1]
            products = np.matmul(designs.transpose(0, 2, 1), coefficients[:, :, None])
            gradients[rows] = products[:, :, 0] + self.regularization * params_group
        return gradients

    def predict_proba(self, params: Params, X: np.ndarray) -> np.ndarray:
        """P(y = 1 | x) for each row of ``X``."""
        params = self.check_params(params)
        X = np.asarray(X, dtype=float)
        return _stable_sigmoid(self._design(X) @ params)

    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Labels in ``{0, 1}`` thresholded at probability 0.5."""
        return (self.predict_proba(params, X) >= 0.5).astype(float)

    def gradient_lipschitz_bound(self, X: np.ndarray) -> float:
        """``L_f <= σ_max(X̃)² / (4n) + λ`` (logistic curvature is at most 1/4)."""
        X = np.asarray(X, dtype=float)
        design = self._design(X)
        top_singular = float(np.linalg.norm(design, ord=2))
        return top_singular**2 / (4.0 * design.shape[0]) + self.regularization


@dataclass(frozen=True)
class _PreparedLogisticShards:
    """Cached shard state for the batched evaluators.

    ``groups`` holds one ``(rows, designs, signed)`` triple per sample count
    ``n``, ascending: the group's rows of the parameter stack, its
    C-contiguous ``(g, n, d)`` design stack and its ``(g, n)`` labels in
    ``{-1, +1}``. ``designs[i]`` is shard ``i``'s design, a view into its
    group's stack.
    """

    designs: tuple[np.ndarray, ...]
    groups: tuple[tuple[slice | np.ndarray, np.ndarray, np.ndarray], ...]


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out
