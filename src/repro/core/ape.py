"""Accumulated Parameter Error (APE) threshold schedule — Algorithm 1.

Suppressing small parameter changes makes every server's view of its
neighbors slightly wrong; Section IV-C bounds how that error compounds:

.. math::

    |APE^k_{(i)}| \\le \\sum_{l=1}^{k-1} (1 + \\alpha G)^l
                       \\max_j |\\Delta x^{k-l}_{(j)}|

where ``G`` bounds the local objectives' second derivative. Algorithm 1
inverts the bound: given a stage budget ``T_k`` that must survive at least
``I_k`` iterations, a parameter may be suppressed when its change is below

.. math::

    \\max_j |\\Delta x_j| = \\frac{T_k}{I_k (1 + \\alpha G)^{I_k}}

Each server tracks its own accumulated-error estimate with the recursive form
``A <- (1 + αG) (A + m)`` (``m`` = largest suppressed change this round,
algebraically identical to the sum above); when ``A`` exceeds ``T_k`` the
stage ends, the threshold decays (the paper multiplies by 0.9), and the
accumulator restarts — "we restart the iteration from the solution derived by
the first 10 iterations". The schedule terminates once ``T_k`` falls below ε,
after which only exactly-unchanged parameters are suppressed (SNAP degrades
gracefully into SNAP-0, preserving exact convergence).

Every server's state lives in one :class:`APEScheduleBank`: four ``(N,)``
columns (``T_k``, ``A``, iterations in the stage, stage index) plus the
shared constants. The vectorized engine steps all N machines with one
:meth:`APEScheduleBank.record_rounds` call per round; everything else (the
reference and semi-sync engines, the testbed, checkpoints, digests, the
invariant monitor) drives one server at a time through an
:class:`APESchedule`, a view of one row of the bank. Both steps apply the
same float64 operations in the same order, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)


class APEScheduleBank:
    """Algorithm 1 state for N servers, stored column-wise.

    Parameters are those of :class:`APESchedule` plus ``n_schedules``; every
    row starts at stage 0 with ``T_0 = initial_threshold``.

    The bank is also a sequence of its rows: ``bank[i]`` is server ``i``'s
    :class:`APESchedule` view (the same object on every access), so code that
    walks schedules one at a time keeps working unchanged.
    """

    def __init__(
        self,
        n_schedules: int,
        initial_threshold: float,
        growth: float,
        stage_iterations: int = 10,
        decay: float = 0.9,
        epsilon: float = 0.0,
        max_stage_iterations: int | None = None,
    ):
        n_schedules = check_positive_int("n_schedules", n_schedules)
        check_positive("initial_threshold", initial_threshold)
        if growth < 1.0:
            raise ValueError(f"growth (1 + alpha*G) must be >= 1, got {growth}")
        self.initial_threshold = float(initial_threshold)
        self.growth = float(growth)
        self.stage_iterations = check_positive_int("stage_iterations", stage_iterations)
        self.decay = check_fraction("decay", decay)
        self.epsilon = check_non_negative("epsilon", epsilon)
        if max_stage_iterations is None:
            max_stage_iterations = stage_iterations
        self.max_stage_iterations = check_positive_int(
            "max_stage_iterations", max_stage_iterations
        )
        if self.max_stage_iterations < self.stage_iterations:
            raise ValueError(
                "max_stage_iterations must be >= stage_iterations "
                f"({self.max_stage_iterations} < {self.stage_iterations})"
            )
        # I_k (1 + αG)^{I_k} never changes across stages (only T_k decays),
        # so the send_threshold denominator is computed once.
        self.send_denominator = (
            self.stage_iterations * self.growth**self.stage_iterations
        )

        #: Stage budget ``T_k`` per server.
        self.threshold = np.full(n_schedules, self.initial_threshold)
        #: APE estimate ``A`` per server within its current stage.
        self.accumulated = np.zeros(n_schedules)
        #: Iterations each server has spent in its current stage.
        self.iterations_in_stage = np.zeros(n_schedules, dtype=np.int64)
        #: Zero-based stage index per server.
        self.stage = np.zeros(n_schedules, dtype=np.int64)
        self._rows = [APESchedule._view(self, row) for row in range(n_schedules)]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, row: int) -> "APESchedule":
        return self._rows[row]

    def __iter__(self):
        return iter(self._rows)

    def active(self) -> np.ndarray:
        """Per server: whether the schedule still suppresses nonzero changes."""
        return self.threshold > self.epsilon

    def send_thresholds(self) -> np.ndarray:
        """Every server's :attr:`APESchedule.send_threshold`, as one ``(N,)`` array."""
        return np.where(
            self.active(), self.threshold / self.send_denominator, 0.0
        )

    def record_rounds(
        self, nodes: np.ndarray, suppressed_max: np.ndarray
    ) -> np.ndarray:
        """:meth:`APESchedule.record_round` for every server in ``nodes`` at once.

        ``nodes`` is an ``(N,)`` boolean mask of the servers that ran this
        round and ``suppressed_max`` their ``(N,)`` largest suppressed
        changes (entries outside the mask are ignored). Returns the ``(N,)``
        mask of servers whose stage advanced.
        """
        nodes = np.asarray(nodes, dtype=bool)
        suppressed_max = np.asarray(suppressed_max, dtype=float)
        negative = nodes & (suppressed_max < 0)
        if negative.any():
            value = suppressed_max[np.flatnonzero(negative)[0]]
            raise ValueError(f"suppressed_max must be >= 0, got {value}")
        stepping = nodes & self.active()
        # Overflow to inf is silent, as in the scalar step's Python floats
        # (rows outside the step are computed too, then discarded).
        with np.errstate(over="ignore", invalid="ignore"):
            accumulated = self.growth * (self.accumulated + suppressed_max)
        np.copyto(self.accumulated, accumulated, where=stepping)
        self.iterations_in_stage += stepping
        advanced = stepping & (
            (self.accumulated > self.threshold)
            | (self.iterations_in_stage >= self.max_stage_iterations)
        )
        if advanced.any():
            decayed = self.threshold * self.decay
            # See APESchedule.record_round: a decay that fails to shrink the
            # budget (denormal range) exhausts the schedule.
            np.copyto(
                self.threshold,
                np.where(decayed < self.threshold, decayed, 0.0),
                where=advanced,
            )
            np.copyto(self.accumulated, 0.0, where=advanced)
            np.copyto(self.iterations_in_stage, 0, where=advanced)
            self.stage += advanced
        return advanced


class APESchedule:
    """Per-server APE threshold state machine.

    A standalone schedule owns a one-row :class:`APEScheduleBank`; the
    schedules of a trainer are rows of one shared bank.

    Parameters
    ----------
    initial_threshold:
        ``T_0``; the paper uses 10% of the mean absolute initial parameter.
    growth:
        The per-iteration error amplification ``1 + αG``.
    stage_iterations:
        ``I_k``, the minimum iterations each stage must last.
    decay:
        Multiplier applied to ``T_k`` when a stage ends (paper: 0.9).
    epsilon:
        Terminal threshold; once ``T_k <= epsilon`` the schedule is exhausted
        and :attr:`send_threshold` becomes 0.
    max_stage_iterations:
        Time-box on a stage: after this many iterations the stage ends even
        if the error budget was never exhausted. Defaults to
        ``stage_iterations``, matching the paper's worked example where the
        threshold steps down every 10 iterations. Without the time-box a run
        that settles into a suppression-induced fixed point (no changes ->
        no accumulated error) would keep its large threshold forever and
        never converge to the optimum; with it, the threshold marches to ε
        and the paper's "we can still derive the optimal solution when the
        APE threshold approaches 0" holds.
    """

    def __init__(
        self,
        initial_threshold: float,
        growth: float,
        stage_iterations: int = 10,
        decay: float = 0.9,
        epsilon: float = 0.0,
        max_stage_iterations: int | None = None,
    ):
        bank = APEScheduleBank(
            1,
            initial_threshold,
            growth,
            stage_iterations=stage_iterations,
            decay=decay,
            epsilon=epsilon,
            max_stage_iterations=max_stage_iterations,
        )
        self._bank = bank
        self._row = 0
        bank._rows[0] = self

    @classmethod
    def _view(cls, bank: APEScheduleBank, row: int) -> "APESchedule":
        schedule = cls.__new__(cls)
        schedule._bank = bank
        schedule._row = row
        return schedule

    @property
    def bank(self) -> APEScheduleBank:
        """The bank this schedule is a row of."""
        return self._bank

    # -- shared constants ----------------------------------------------------

    @property
    def initial_threshold(self) -> float:
        return self._bank.initial_threshold

    @property
    def growth(self) -> float:
        return self._bank.growth

    @property
    def stage_iterations(self) -> int:
        return self._bank.stage_iterations

    @property
    def decay(self) -> float:
        return self._bank.decay

    @property
    def epsilon(self) -> float:
        return self._bank.epsilon

    @property
    def max_stage_iterations(self) -> int:
        return self._bank.max_stage_iterations

    # -- this row's state ----------------------------------------------------

    @property
    def threshold(self) -> float:
        """Current stage budget ``T_k`` (0 once exhausted)."""
        threshold = float(self._bank.threshold[self._row])
        return threshold if threshold > self._bank.epsilon else 0.0

    @property
    def stage(self) -> int:
        """Zero-based index of the current stage."""
        return int(self._bank.stage[self._row])

    @property
    def accumulated_error(self) -> float:
        """Current APE estimate ``A`` within the stage."""
        return float(self._bank.accumulated[self._row])

    @property
    def active(self) -> bool:
        """Whether the schedule still suppresses nonzero changes."""
        return float(self._bank.threshold[self._row]) > self._bank.epsilon

    @property
    def send_threshold(self) -> float:
        """Per-iteration suppression threshold (line 4 of Algorithm 1).

        ``T_k / (I_k (1 + αG)^{I_k})`` while active, else 0 — meaning only
        exactly-unchanged parameters are suppressed.
        """
        threshold = float(self._bank.threshold[self._row])
        if not threshold > self._bank.epsilon:
            return 0.0
        return threshold / self._bank.send_denominator

    def record_round(self, suppressed_max: float) -> None:
        """Fold one round's largest suppressed change into the APE estimate.

        Advances to the next stage when the estimate exceeds the stage
        budget (line 5–6 of Algorithm 1). A no-op once exhausted.
        """
        if suppressed_max < 0:
            raise ValueError(f"suppressed_max must be >= 0, got {suppressed_max}")
        bank, row = self._bank, self._row
        threshold = float(bank.threshold[row])
        if not threshold > bank.epsilon:
            return
        accumulated = bank.growth * (
            float(bank.accumulated[row]) + float(suppressed_max)
        )
        iterations = int(bank.iterations_in_stage[row]) + 1
        if accumulated > threshold or iterations >= bank.max_stage_iterations:
            decayed = threshold * bank.decay
            # In the denormal range the product can round back to the
            # threshold itself (e.g. 2 ulp * 0.9 -> 2 ulp), which would pin
            # the schedule above a denormal epsilon forever; a decay step
            # that fails to strictly shrink the budget means the threshold
            # is already numerically indistinguishable from exhausted.
            bank.threshold[row] = decayed if decayed < threshold else 0.0
            accumulated = 0.0
            iterations = 0
            bank.stage[row] += 1
        bank.accumulated[row] = accumulated
        bank.iterations_in_stage[row] = iterations

    def state_dict(self) -> dict:
        """Mutable state for checkpointing (configuration is not included)."""
        bank, row = self._bank, self._row
        return {
            "threshold": float(bank.threshold[row]),
            "accumulated": float(bank.accumulated[row]),
            "iterations_in_stage": int(bank.iterations_in_stage[row]),
            "stage": int(bank.stage[row]),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        bank, row = self._bank, self._row
        bank.threshold[row] = float(state["threshold"])
        bank.accumulated[row] = float(state["accumulated"])
        bank.iterations_in_stage[row] = int(state["iterations_in_stage"])
        bank.stage[row] = int(state["stage"])

    def __repr__(self) -> str:
        return (
            f"APESchedule(stage={self.stage}, threshold={self.threshold:.3e}, "
            f"send_threshold={self.send_threshold:.3e}, active={self.active})"
        )
