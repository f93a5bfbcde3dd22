"""SNAP's own selection policies expressed as compressors.

One class covers all three of the paper's schemes — they differ only in the
threshold fed to :func:`repro.core.selection.select_parameters`:

* **APE** (``kind="ape"``) — the threshold follows one
  :class:`~repro.core.ape.APESchedule` per node, in relative units of the
  node's mean absolute parameter value; stage boundaries restart the EXTRA
  recursion (Algorithm 1).
* **SNAP-0** (``kind="changed_only"``) — threshold 0: every changed
  coordinate is sent, exact ties are suppressed.
* **SNO** (``kind="dense"``) — no selection at all; the full vector goes out
  every round.

The arithmetic here reproduces the pre-subsystem trainer expressions
operation for operation: the same scale (``max(mean|x|, 1e-8)``), the same product order
(``relative_threshold * scale``), the same relative suppressed statistic
(``suppressed_max / scale``) — which is what keeps default runs bit-for-bit
identical to the historical implementation (pinned by
``tests/compression/test_regression_pin.py``).

The batch protocol runs the same arithmetic for every node and edge at
once, on the :class:`~repro.core.ape.APEScheduleBank` that holds all N
schedules as columns; it is what the vectorized engine calls, and the
per-edge methods stay the oracle for every other runtime.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, EdgeBatch, EdgeState, Payload
from repro.core.ape import APESchedule
from repro.core.selection import select_parameters
from repro.network.frames import encoded_update_bytes_many


class APECompressor(Compressor):
    """Threshold selection against the per-edge reference (SNAP / SNAP-0 / SNO).

    Parameters
    ----------
    schedule:
        The node's :class:`~repro.core.ape.APESchedule`, or ``None`` for a
        permanent zero threshold (SNAP-0).
    dense:
        Skip selection entirely and always emit the full vector (SNO).

    The batch methods step every node at once on whichever instance the
    engine calls: the schedule's bank holds all N nodes' Algorithm 1 state,
    and the instance keeps the persistent ``(E, d)`` scratch the round's
    deltas and send mask are computed in.
    """

    name = "ape"

    def __init__(self, schedule: APESchedule | None = None, dense: bool = False):
        if dense and schedule is not None:
            raise ValueError("dense selection does not take a schedule")
        self.schedule = schedule
        self.dense = bool(dense)
        self._deltas: np.ndarray | None = None
        self._mask: np.ndarray | None = None

    def begin_round(self, params: np.ndarray, round_index: int) -> dict:
        if self.dense:
            return {}
        scale = max(float(np.mean(np.abs(params))), 1e-8)
        relative = self.schedule.send_threshold if self.schedule is not None else 0.0
        return {
            "scale": scale,
            "threshold": relative * scale,
            "suppressed_max": 0.0,
        }

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        if self.dense:
            values = np.asarray(current, dtype=float)
            return Payload(
                indices=np.arange(values.size, dtype=np.int64),
                values=values,
                meta={},
            )
        selection = select_parameters(current, state.reference, ctx["threshold"])
        ctx["suppressed_max"] = max(ctx["suppressed_max"], selection.suppressed_max)
        return Payload(
            indices=selection.indices, values=selection.values, meta={}
        )

    def end_round(self, ctx: dict) -> bool:
        if self.schedule is None:
            return False
        stage_before = self.schedule.stage
        self.schedule.record_round(ctx["suppressed_max"] / ctx["scale"])
        return self.schedule.stage != stage_before

    def begin_batch(
        self, params: np.ndarray, active: np.ndarray, round_index: int
    ) -> dict:
        ctx = {"active": active}
        if self.dense:
            return ctx
        if self.schedule is not None:
            relative = self.schedule.bank.send_thresholds()
        else:
            relative = np.zeros(len(params))
        scale = np.maximum(np.abs(params).mean(axis=1), 1e-8)
        ctx["scale"] = scale
        ctx["threshold"] = relative * scale
        return ctx

    def compress_batch(
        self, params, sources, references, eligible, ctx, edge_state
    ) -> EdgeBatch:
        if self._deltas is None or self._deltas.shape != references.shape:
            self._deltas = np.empty(references.shape)
            self._mask = np.empty(references.shape, dtype=bool)
        deltas, mask = self._deltas, self._mask
        if self.dense:
            mask.fill(True)
        else:
            # In place on the persistent scratch, bitwise equal to
            # abs(current - reference) > threshold row by row.
            np.take(params, sources, axis=0, out=deltas)
            np.subtract(deltas, references, out=deltas)
            np.abs(deltas, out=deltas)
            np.greater(deltas, ctx["threshold"][sources][:, None], out=mask)
            if self.schedule is not None:
                # Masked suppressed-max without a where() copy: zeroing the
                # sent coordinates in place and reducing is bitwise equal to
                # np.where(mask, 0.0, deltas).max(axis=1).
                np.copyto(deltas, 0.0, where=mask)
                rows = np.flatnonzero(eligible)
                suppressed = np.zeros(len(params))
                np.maximum.at(suppressed, sources[rows], deltas.max(axis=1)[rows])
                ctx["suppressed"] = suppressed
        n_params = references.shape[1]
        sizes = encoded_update_bytes_many(n_params, n_params - mask.sum(axis=1))
        # The deltas are dead: the scratch now carries the sent values.
        np.take(params, sources, axis=0, out=deltas)
        return EdgeBatch(mask, deltas, sizes)

    def end_batch(self, ctx: dict, delivered: np.ndarray) -> np.ndarray:
        if self.schedule is None:
            return np.zeros(len(ctx["active"]), dtype=bool)
        return self.schedule.bank.record_rounds(
            ctx["active"], ctx["suppressed"] / ctx["scale"]
        )

    def state_dict(self) -> dict:
        """Schedule state for checkpointing (empty outside the APE policy)."""
        if self.schedule is None:
            return {}
        return self.schedule.state_dict()

    def load_state_dict(self, state: dict) -> None:
        if self.schedule is not None and state:
            self.schedule.load_state_dict(state)
