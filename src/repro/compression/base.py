"""The compressor protocol: how an update is shrunk before it hits the wire.

Every scheme in this package — APE thresholding, Top-k/Random-k
sparsification, b-bit uniform quantization, TernGrad — is expressed as one
interface so the trainer, both simulation engines, and the TCP testbed can
run any of them through a single code path with honest byte accounting:

* :meth:`Compressor.begin_round` computes per-round, per-node context (the
  APE threshold, for example) from the node's current parameters;
* :meth:`Compressor.compress` turns ``(current, reference)`` for one
  directed edge into a sparse :class:`Payload` of (indices, values, meta);
* :meth:`Compressor.payload_delivered` / :meth:`Compressor.payload_dropped`
  observe the channel's verdict (residual bookkeeping lives here);
* :meth:`Compressor.end_round` folds round statistics back into persistent
  state and reports whether the optimizer should restart its recursion
  (Algorithm 1's stage boundary).

The vectorized engine runs the same round for every edge at once through
:meth:`Compressor.begin_batch`, :meth:`Compressor.compress_batch` (an
:class:`EdgeBatch` of send masks, absolute values and wire sizes) and
:meth:`Compressor.end_batch`.

**Reference tracking is the protocol's backbone.** Every edge carries a
reference vector — the receiver's current view of the sender, which by
protocol invariant equals the sender's ``last_sent`` record. Compressors
always compress the drift ``current - reference``, and the reference only
advances on *confirmed delivery*. Anything not transmitted this round
(suppressed, dropped by the link, or lost to quantization) therefore stays
in the drift and is re-offered next round — which is precisely error
feedback: the residual ``current - reference`` IS the error-feedback
accumulator. SNAP's APE machinery is the special case that additionally
tracks a scalar budget on the suppressed drift (see
``docs/COMPRESSION.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.network.frames import encoded_update_bytes
from repro.network.messages import ParameterUpdate, QuantizationInfo


@dataclass
class EdgeState:
    """Persistent per-directed-edge compressor state.

    Attributes
    ----------
    source, destination:
        The directed edge this state belongs to.
    reference:
        What the destination currently holds for the source (set by the
        engine before every :meth:`Compressor.compress` call; points at the
        live link-state array so delivery hooks observe its post-outcome
        value).
    residual:
        Explicit error-feedback accumulator (``ErrorFeedback`` wrapper only;
        ``None`` otherwise — plain reference tracking carries the residual
        implicitly).
    rng:
        Per-edge random generator for stochastic compressors, keyed by
        ``(seed, source, destination)`` so results are independent of the
        order edges are processed in — the property that keeps the
        reference engine, the vectorized engine, and the threaded testbed
        bit-for-bit identical.
    """

    source: int
    destination: int
    reference: np.ndarray | None = None
    residual: np.ndarray | None = None
    rng: np.random.Generator | None = None
    #: Scratch for data produced at compress time and consumed by the
    #: delivered/dropped hook of the same round (e.g. the uncompressed drift).
    pending: dict = field(default_factory=dict)


class Payload(NamedTuple):
    """One compressed update: what :meth:`Compressor.compress` returns.

    ``indices`` are sorted flat parameter indices; ``values`` are the
    *absolute* parameter values the receiver should hold at those indices
    (reference tracking makes absolute values and deltas interchangeable;
    absolute is what the Fig. 3 frames carry). ``meta`` optionally carries
    ``"quantization"`` (:class:`~repro.network.messages.QuantizationInfo`)
    plus compressor telemetry.
    """

    indices: np.ndarray
    values: np.ndarray
    meta: dict

    @property
    def n_sent(self) -> int:
        return int(self.indices.size)


def payload_to_update(
    payload: Payload, sender: int, round_index: int, total_params: int
) -> ParameterUpdate:
    """Wrap a payload in the message type the channel/transport ships."""
    quantization = payload.meta.get("quantization")
    return ParameterUpdate(
        sender=sender,
        round_index=round_index,
        total_params=total_params,
        indices=payload.indices,
        values=payload.values,
        quantization=quantization,
    )


class EdgeBatch(NamedTuple):
    """One round's compressed updates for K directed edges, as arrays.

    What :meth:`Compressor.compress_batch` returns; row ``k`` is the batch
    form of one :class:`Payload` scattered into the full dimension:
    ``mask[k, i]`` says coordinate ``i`` is sent, ``values[k, i]`` is then
    the *absolute* value the receiver should hold (other entries are
    unspecified), and ``sizes[k]`` is the payload's
    :meth:`Compressor.bytes_on_wire`. The arrays may be the compressor's
    scratch: the engine consumes (and may overwrite) them within the round.
    """

    mask: np.ndarray
    values: np.ndarray
    sizes: np.ndarray


class Compressor:
    """Base class of every compression scheme (see the module docstring).

    Subclasses must implement :meth:`compress`; everything else has
    behavior-preserving defaults. ``uses_rng`` advertises a stochastic
    scheme: its edge states get a keyed per-edge generator.

    The vectorized engine drives one instance through the batch protocol
    (:meth:`begin_batch`, :meth:`compress_batch`, :meth:`end_batch`) for
    all N nodes and E directed edges at once. Its defaults run the per-edge
    protocol row by row, which is what stateful schemes (a keyed RNG or a
    per-edge residual) need. Schemes without per-edge state override
    :meth:`compress_batch` with an array kernel that is bitwise identical
    to the per-edge path; such a kernel owns the whole round, so a scheme
    with per-node state (APE) overrides all three methods.
    """

    #: Human-readable label; the builder overrides it with the full spec
    #: label (e.g. ``"topk(k=32)"``), which is also the cost tracker's
    #: stage-attribution key.
    name: str = "compressor"
    uses_rng: bool = False

    # -- state ------------------------------------------------------------------

    def make_edge_state(
        self,
        n_params: int,
        source: int,
        destination: int,
        seed: int | None,
    ) -> EdgeState:
        """Create the persistent state for one directed edge."""
        state = EdgeState(source=int(source), destination=int(destination))
        if self.uses_rng:
            state.rng = edge_rng(seed, source, destination)
        return state

    # -- the per-edge round protocol --------------------------------------------

    def begin_round(self, params: np.ndarray, round_index: int) -> dict:
        """Per-node round context, computed once before the edge fan-out."""
        return {}

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        """Compress ``current`` against ``state.reference`` for one edge."""
        raise NotImplementedError

    def bytes_on_wire(self, payload: Payload, total_params: int) -> int:
        """Exact wire bytes of this payload in its cheapest frame format."""
        quantization = payload.meta.get("quantization")
        bits = quantization.bits if quantization is not None else None
        return encoded_update_bytes(
            total_params, total_params - payload.n_sent, bits
        )

    def payload_delivered(self, payload: Payload, state: EdgeState) -> None:
        """Hook: the channel confirmed delivery (reference already advanced)."""

    def payload_dropped(self, payload: Payload, state: EdgeState) -> None:
        """Hook: the payload never reached the receiver (link down/corrupt)."""

    def end_round(self, ctx: dict) -> bool:
        """Fold round statistics into state; ``True`` requests an optimizer
        recursion restart (Algorithm 1's stage boundary)."""
        return False

    # -- the batch round protocol -----------------------------------------------

    def begin_batch(
        self, params: np.ndarray, active: np.ndarray, round_index: int
    ) -> dict:
        """Round context for all N nodes; ``active`` masks the nodes that run."""
        return {"active": active, "round_index": round_index}

    def compress_batch(
        self,
        params: np.ndarray,
        sources: np.ndarray,
        references: np.ndarray,
        eligible: np.ndarray,
        ctx: dict,
        edge_state,
    ) -> EdgeBatch:
        """Compress K directed edges at once.

        Row ``k`` compresses ``params[sources[k]]`` against
        ``references[k]``, the live view row its receiver holds (advanced
        in place by delivery). Only ``eligible`` rows carry a message this
        round; the other rows' outputs are unspecified. ``edge_state(k)``
        returns row ``k``'s persistent :class:`EdgeState` and creates it on
        first use, so a kernel that never calls it creates none.

        The default is the per-edge protocol: ``begin_round`` for every
        active node, then ``compress`` and ``bytes_on_wire`` for every
        eligible row, scattered into the arrays. The per-node contexts are
        built here rather than in :meth:`begin_batch`, so array kernels
        that override this method pay no per-node loop.
        """
        n_rows, n_params = references.shape
        mask = np.zeros((n_rows, n_params), dtype=bool)
        values = np.zeros((n_rows, n_params))
        sizes = np.zeros(n_rows, dtype=np.int64)
        nodes = ctx["nodes"] = {
            int(i): self.begin_round(params[i], ctx["round_index"])
            for i in np.flatnonzero(ctx["active"])
        }
        sent = ctx["sent"] = []
        for row in np.flatnonzero(eligible):
            node = int(sources[row])
            state = edge_state(row)
            state.reference = references[row]
            payload = self.compress(params[node], state, nodes[node])
            mask[row, payload.indices] = True
            values[row, payload.indices] = payload.values
            sizes[row] = self.bytes_on_wire(payload, n_params)
            sent.append((row, payload, state))
        return EdgeBatch(mask, values, sizes)

    def end_batch(self, ctx: dict, delivered: np.ndarray) -> np.ndarray:
        """Close the round; returns the ``(N,)`` mask of nodes that restart.

        ``delivered`` masks the rows whose update arrived. The default runs
        the per-edge delivered/dropped hooks (their states' references
        already hold the post-round views), then ``end_round`` per node.
        """
        restart = np.zeros(len(ctx["active"]), dtype=bool)
        for row, payload, state in ctx.get("sent", ()):
            if delivered[row]:
                self.payload_delivered(payload, state)
            else:
                self.payload_dropped(payload, state)
        for node, node_ctx in ctx.get("nodes", {}).items():
            restart[node] = self.end_round(node_ctx)
        return restart

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def edge_rng(
    seed: int | None, source: int, destination: int
) -> np.random.Generator:
    """The keyed per-edge generator stochastic compressors draw from.

    Seeding by ``(seed, source, destination)`` (through numpy's
    ``SeedSequence`` entropy spawning) makes each edge's stream independent
    of every other edge's and of the order edges are compressed in.
    """
    base = 0 if seed is None else int(seed)
    return np.random.default_rng([base, int(source), int(destination)])


__all__ = [
    "Compressor",
    "EdgeBatch",
    "EdgeState",
    "Payload",
    "QuantizationInfo",
    "edge_rng",
    "payload_to_update",
]
