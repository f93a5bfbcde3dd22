"""Runtime invariant monitors: the paper's contracts, asserted live.

SNAP's headline guarantees are machine-checkable, and this module checks
them *during* a run instead of post-hoc:

``weight-stochasticity``
    The mixing matrix ``W`` of problems (22)/(23) must be symmetric,
    doubly stochastic, and supported on the topology (and then
    ``W̃ = (I + W)/2`` inherits all three) — the structural precondition
    of the EXTRA recursion (8).
``weight-spectrum``
    EXTRA's convergence class needs ``λ_max(W) = 1`` simple (a spectral
    gap below one) and ``W̃ ≻ 0``, i.e. ``λ_min(W) > -1``.
``ape-budget``
    Algorithm 1: each server's accumulated parameter error estimate must
    stay within the stage budget ``T_k``, the budget must decay
    monotonically from its initial value, and the per-iteration send
    threshold must equal ``T_k / (I_k (1 + αG)^{I_k})`` exactly.
``byte-ledger``
    Every recorded flow's byte count must be one of the analytic Fig. 3
    frame sizes — ``4 + 8N - 4M`` (UNCHANGED_INDEX), ``12 (N - M)``
    (INDEX_VALUE), or the QUANTIZED size when the scheme quantizes — at
    one hop, and the per-round ledger aggregates must conserve (round
    record == tracker == sum of the round's flows).
``error-feedback``
    The protocol backbone: ``sender.last_sent[j] == receiver.views[i]``
    bitwise on every directed edge (both advance only on confirmed
    delivery), and any materialized error-feedback residual must equal
    ``params - last_sent`` exactly.
``semi-sync``
    Only when the semi-synchronous engine runs: per-edge progress
    staleness observed at any step start must stay within the configured
    bound τ, applied view versions must be strictly monotone per directed
    edge, and the deferred-delivery ledger must conserve — every frame
    (and its bytes) put on the wire is accounted as applied, corrupted,
    or in flight, and the in-flight count equals the frames actually
    sitting in the engine's reorder buffers at the round boundary.
``consensus-envelope``
    The EXTRA consensus residual may oscillate under suppression and
    faults but must stay finite and inside a constant multiple of its
    opening envelope — divergence (NaN/∞/explosion) is flagged at the
    round it happens.
``byzantine-bound``
    Only when a byzantine plan runs under a robust aggregator: no honest
    server may face more attacker neighbors than the configured
    tolerance ``f`` — beyond it the trimmed-mean/median/Krum guarantee
    is void and the run's robustness claim is a lie.
``drift-schedule``
    Only under a drift schedule: the epoch must be non-decreasing in the
    round index, and the shards the trainer holds must belong to exactly
    the epoch the schedule assigns to the completed round.
``hierarchy-ledger``
    Only on tiered topologies: every flow must connect adjacent tiers
    (edge <-> aggregator <-> cloud, never skipping a level), and the
    per-tier-pair byte decomposition must sum exactly to the round
    record's byte total — conservation across the hierarchy.

Enable with ``SNAPConfig(invariants="strict")``; the trainer then runs
every check each round on both engines (the vectorized engine's state is
synced back to the server objects before inspection). Violations raise
:class:`~repro.exceptions.InvariantViolation` naming the invariant and the
round. Custom checks plug in via :meth:`InvariantMonitor.add_check`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np
from scipy.sparse import issparse

from repro.exceptions import InvariantViolation
from repro.network.frames import encoded_update_bytes

#: Floor under the consensus envelope so an all-but-converged opening
#: (consensus ~ 1e-16) does not turn numeric noise into violations.
_CONSENSUS_FLOOR = 1e-9

#: Rounds used to establish the consensus envelope's opening level.
_ENVELOPE_WARMUP_ROUNDS = 3


def quantization_bits(spec) -> int | None:
    """The wire bit-width a compressor spec's frames may use (None = never)."""
    if spec.kind == "uniform":
        return spec.params_dict().get("bits")
    if spec.kind == "terngrad":
        return 2
    return None


def feasible_frame_sizes(total_params: int, bits: int | None) -> frozenset:
    """Every byte count a sender can legally put on the wire for ``d`` params.

    The cheapest-format rule means a flow of a ``d``-parameter model is
    always ``encoded_update_bytes(d, M)`` for some suppressed count ``M`` —
    with the quantized variant joining the comparison when the scheme
    carries quantization metadata. Anything outside this set is a corrupted
    ledger entry.
    """
    sizes = {encoded_update_bytes(total_params, m) for m in range(total_params + 1)}
    if bits is not None:
        sizes |= {
            encoded_update_bytes(total_params, m, bits)
            for m in range(total_params + 1)
        }
    return frozenset(sizes)


class InvariantMonitor:
    """Per-round invariant checks over one :class:`SNAPTrainer`.

    Parameters
    ----------
    trainer:
        The trainer to observe. The monitor reads the synced server
        objects, the cost tracker, the APE schedules, and the weight
        matrix; it never mutates anything.
    atol:
        Absolute tolerance for the structural weight-matrix checks
        (stochasticity sums, symmetry, spectrum endpoints).
    consensus_slack:
        Multiple of the opening consensus envelope the residual may reach
        before the run is declared divergent. Generous by design: the
        invariant targets blow-ups, not the bounded oscillation faults and
        suppression legitimately cause.
    """

    def __init__(
        self,
        trainer,
        *,
        atol: float = 1e-8,
        consensus_slack: float = 1e3,
    ):
        self.trainer = trainer
        self.atol = float(atol)
        self.consensus_slack = float(consensus_slack)
        #: How many times each named invariant was checked (for reports).
        self.checks: Counter = Counter()
        self._extra_checks: list[tuple[str, Callable]] = []
        #: Flow batches accumulated since the last byte-ledger check, fed by
        #: the tracker's observer hook. This is how the ledger invariant sees
        #: every flow without the tracker retaining per-flow records — it
        #: works identically under ``retain_records=False``. The monitor is
        #: constructed in ``SNAPTrainer.__init__`` before any flow can be
        #: recorded, so no traffic predates the subscription.
        self._pending_flows: list[tuple] = []
        trainer.tracker.add_observer(self._observe_flows)
        self._feasible_size_array: np.ndarray | None = None
        self._threshold_watermarks: np.ndarray | None = None
        self._consensus_envelope: float | None = None
        self._envelope_rounds_seen = 0
        self._drift_watermark = 0

    # -- plumbing ----------------------------------------------------------------

    def add_check(self, name: str, check: Callable) -> None:
        """Register a custom per-round check.

        ``check(monitor, record, down)`` runs after the built-in checks each
        round and reports failures via :meth:`violate`.
        """
        self._extra_checks.append((str(name), check))

    def violate(self, invariant: str, detail: str, round_index: int | None = None):
        """Raise the canonical diagnostic for a violated invariant."""
        where = "" if round_index is None else f" at round {round_index}"
        raise InvariantViolation(
            f"invariant '{invariant}' violated{where}: {detail}",
            invariant=invariant,
            round_index=round_index,
        )

    def summary(self) -> dict:
        """Check counts per invariant (all zero means the monitor never ran)."""
        return dict(self.checks)

    # -- run-start checks --------------------------------------------------------

    def on_run_start(self) -> None:
        """Validate the structural weight-matrix contracts before round one."""
        self._check_weight_stochasticity()
        self._check_weight_spectrum()
        if self._threshold_watermarks is None and self.trainer._schedules:
            self._threshold_watermarks = self.trainer._schedules.threshold.copy()

    def on_topology_swap(self, swap) -> None:
        """Re-validate the mixing contracts after an adaptive topology swap.

        The trainer calls this with the swap already applied, so the checks
        read the *new* ``trainer.weight_matrix`` / ``trainer.topology`` pair
        live — a re-optimized W that lost symmetry, leaked mass onto pruned
        links, or broke the spectral-gap contract is caught by name at the
        swap boundary, not rounds later. A joint swap may also change the
        compressor's byte knob, which changes the analytic feasible frame
        sizes; the cached size table is invalidated so the byte-ledger check
        rebuilds it for the new spec on its next round.
        """
        self.checks["topology-swap"] += 1
        self._check_weight_stochasticity()
        self._check_weight_spectrum()
        self._feasible_size_array = None

    def _check_weight_stochasticity(self) -> None:
        self.checks["weight-stochasticity"] += 1
        if issparse(self.trainer.weight_matrix):
            return self._check_weight_stochasticity_sparse()
        W = np.asarray(self.trainer.weight_matrix, dtype=float)
        n = self.trainer.topology.n_nodes
        if W.shape != (n, n):
            self.violate(
                "weight-stochasticity",
                f"W has shape {W.shape}, topology has {n} nodes",
            )
        asymmetry = float(np.abs(W - W.T).max())
        if asymmetry > self.atol:
            self.violate(
                "weight-stochasticity",
                f"W is not symmetric (max |W - W^T| = {asymmetry:.3e})",
            )
        row_err = float(np.abs(W.sum(axis=1) - 1.0).max())
        if row_err > self.atol:
            worst = int(np.abs(W.sum(axis=1) - 1.0).argmax())
            self.violate(
                "weight-stochasticity",
                f"row {worst} of W sums to {W.sum(axis=1)[worst]:.12f}, "
                f"not 1 (problems (22)/(23) require W 1 = 1)",
            )
        col_err = float(np.abs(W.sum(axis=0) - 1.0).max())
        if col_err > self.atol:
            self.violate(
                "weight-stochasticity",
                f"columns of W do not sum to 1 (max error {col_err:.3e})",
            )
        allowed = np.eye(n, dtype=bool)
        for u, v in self.trainer.topology.edges:
            allowed[u, v] = allowed[v, u] = True
        off_support = np.abs(np.where(allowed, 0.0, W))
        if off_support.size and float(off_support.max()) > self.atol:
            u, v = np.unravel_index(int(off_support.argmax()), W.shape)
            self.violate(
                "weight-stochasticity",
                f"W[{u}, {v}] = {W[u, v]:.3e} but ({u}, {v}) is not an edge "
                "(weights must be supported on the neighbor sets)",
            )

    def _check_weight_stochasticity_sparse(self) -> None:
        """Sparse-W variant: same contracts, no dense (N, N) materialization."""
        W = self.trainer.weight_matrix.tocsr()
        n = self.trainer.topology.n_nodes
        if W.shape != (n, n):
            self.violate(
                "weight-stochasticity",
                f"W has shape {W.shape}, topology has {n} nodes",
            )
        gap = (W - W.T).tocoo()
        asymmetry = float(np.abs(gap.data).max()) if gap.nnz else 0.0
        if asymmetry > self.atol:
            self.violate(
                "weight-stochasticity",
                f"W is not symmetric (max |W - W^T| = {asymmetry:.3e})",
            )
        ones = np.ones(n)
        row_sums = W @ ones
        row_err = float(np.abs(row_sums - 1.0).max())
        if row_err > self.atol:
            worst = int(np.abs(row_sums - 1.0).argmax())
            self.violate(
                "weight-stochasticity",
                f"row {worst} of W sums to {row_sums[worst]:.12f}, "
                f"not 1 (problems (22)/(23) require W 1 = 1)",
            )
        col_err = float(np.abs(W.T @ ones - 1.0).max())
        if col_err > self.atol:
            self.violate(
                "weight-stochasticity",
                f"columns of W do not sum to 1 (max error {col_err:.3e})",
            )
        allowed = {(u, v) for u, v in self.trainer.topology.edges}
        allowed |= {(v, u) for u, v in self.trainer.topology.edges}
        coo = W.tocoo()
        for u, v, value in zip(coo.row, coo.col, coo.data):
            u, v = int(u), int(v)
            if u != v and (u, v) not in allowed and abs(value) > self.atol:
                self.violate(
                    "weight-stochasticity",
                    f"W[{u}, {v}] = {value:.3e} but ({u}, {v}) is not an edge "
                    "(weights must be supported on the neighbor sets)",
                )

    def _check_weight_spectrum(self) -> None:
        self.checks["weight-spectrum"] += 1
        W = self.trainer.weight_matrix
        if issparse(W):
            n = W.shape[0]
            if n >= 3:
                return self._check_weight_spectrum_sparse(W)
            W = W.toarray()
        W = np.asarray(W, dtype=float)
        eigenvalues = np.sort(np.linalg.eigvalsh(0.5 * (W + W.T)))
        lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
        if abs(lam_max - 1.0) > 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"λ_max(W) = {lam_max:.12f}; a doubly stochastic W must have "
                "λ_max = 1 (the consensus eigenvector)",
            )
        if lam_min <= -1.0 + 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"λ_min(W) = {lam_min:.12f} ≤ -1; EXTRA needs "
                "W̃ = (I + W)/2 ≻ 0",
            )
        if len(eigenvalues) > 1:
            second = float(eigenvalues[-2])
            if second >= 1.0 - 10 * self.atol:
                self.violate(
                    "weight-spectrum",
                    f"second-largest eigenvalue {second:.12f} touches 1: no "
                    "spectral gap, so consensus cannot contract "
                    "(disconnected or degenerate mixing)",
                )

    def _check_weight_spectrum_sparse(self, W) -> None:
        """Spectrum endpoints via Lanczos instead of a dense O(N^3) eigvalsh."""
        from scipy.sparse.linalg import eigsh

        from repro.utils.linalg import smallest_eigenvalue_sparse

        symmetric = ((W + W.T) * 0.5).astype(float)
        n = symmetric.shape[0]
        v0 = np.random.default_rng(0).standard_normal(n)
        top = np.sort(
            eigsh(
                symmetric,
                k=min(2, n - 1),
                which="LA",
                v0=v0,
                return_eigenvectors=False,
            )
        )
        lam_max = float(top[-1])
        lam_min = smallest_eigenvalue_sparse(symmetric)
        if abs(lam_max - 1.0) > 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"λ_max(W) = {lam_max:.12f}; a doubly stochastic W must have "
                "λ_max = 1 (the consensus eigenvector)",
            )
        if lam_min <= -1.0 + 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"λ_min(W) = {lam_min:.12f} ≤ -1; EXTRA needs "
                "W̃ = (I + W)/2 ≻ 0",
            )
        if top.size > 1:
            second = float(top[0])
            if second >= 1.0 - 10 * self.atol:
                self.violate(
                    "weight-spectrum",
                    f"second-largest eigenvalue {second:.12f} touches 1: no "
                    "spectral gap, so consensus cannot contract "
                    "(disconnected or degenerate mixing)",
                )

    # -- per-round checks --------------------------------------------------------

    def on_round(self, record, down: frozenset = frozenset()) -> None:
        """Run every per-round invariant after one completed round.

        The caller must have synced engine state back onto the server
        objects (``SNAPTrainer.run`` does this before invoking the monitor).
        """
        self._check_ape_budget(record)
        # Pop the accumulated flow batches once: both ledger checks (global
        # and tiered) read the same per-flow evidence for this round.
        batches, self._pending_flows = self._pending_flows, []
        self._check_byte_ledger(record, batches)
        self._check_hierarchy_ledger(record, batches)
        self._check_byzantine_bound(record)
        self._check_drift_schedule(record)
        self._check_error_feedback(record, down)
        self._check_consensus_envelope(record)
        self._check_semi_sync(record)
        for name, check in self._extra_checks:
            self.checks[name] += 1
            check(self, record, down)

    def _check_ape_budget(self, record) -> None:
        bank = self.trainer._schedules
        if not bank:
            return
        self.checks["ape-budget"] += 1
        threshold = bank.threshold
        accumulated = bank.accumulated
        if self._threshold_watermarks is None:
            self._threshold_watermarks = threshold.copy()
        watermark = self._threshold_watermarks
        active = threshold > bank.epsilon
        negative = accumulated < 0
        over_budget = active & (accumulated > threshold)
        grew = threshold > watermark * (1.0 + 1e-12)
        send = bank.send_thresholds()
        expected_send = np.where(active, threshold / bank.send_denominator, 0.0)
        wrong_send = send != expected_send
        # Loop only over offending servers, in node order, to format the
        # first diagnostic.
        for node in np.flatnonzero(negative | over_budget | grew | wrong_send):
            node = int(node)
            t_k = float(threshold[node])
            estimate = float(accumulated[node])
            if negative[node]:
                self.violate(
                    "ape-budget",
                    f"server {node}: accumulated APE estimate is negative "
                    f"({estimate:.3e})",
                    record.round_index,
                )
            if over_budget[node]:
                self.violate(
                    "ape-budget",
                    f"server {node}: accumulated APE estimate "
                    f"{estimate:.6e} exceeds the stage budget T_k = "
                    f"{t_k:.6e} without a stage advance (Algorithm 1, "
                    "lines 5-6)",
                    record.round_index,
                )
            if grew[node]:
                self.violate(
                    "ape-budget",
                    f"server {node}: stage budget grew from "
                    f"{float(watermark[node]):.6e} to {t_k:.6e}; T_k must "
                    "decay monotonically",
                    record.round_index,
                )
            if wrong_send[node]:
                self.violate(
                    "ape-budget",
                    f"server {node}: send threshold {float(send[node])!r}"
                    f" != T_k / (I_k (1+αG)^I_k) = "
                    f"{float(expected_send[node])!r} (Algorithm 1, line 4)",
                    record.round_index,
                )
        np.copyto(watermark, threshold)

    def _observe_flows(self, round_index, sources, destinations, sizes, hops):
        """Tracker observer: stash each validated flow batch until the round check."""
        self._pending_flows.append((int(round_index), sources, destinations, sizes, hops))

    def _check_byte_ledger(self, record, batches) -> None:
        self.checks["byte-ledger"] += 1
        tracker = self.trainer.tracker
        round_index = record.round_index
        tracked_bytes = tracker.round_bytes(round_index)
        if record.bytes_sent != tracked_bytes:
            self.violate(
                "byte-ledger",
                f"round record reports {record.bytes_sent} bytes but the "
                f"tracker aggregated {tracked_bytes}",
                round_index,
            )
        tracked_cost = tracker.round_cost(round_index)
        if record.cost != tracked_cost:
            self.violate(
                "byte-ledger",
                f"round record reports cost {record.cost} but the tracker "
                f"aggregated {tracked_cost}",
                round_index,
            )
        if self._feasible_size_array is None:
            self._feasible_size_array = np.asarray(
                sorted(
                    feasible_frame_sizes(
                        self.trainer.model.n_params,
                        quantization_bits(self.trainer.compressor_spec),
                    )
                ),
                dtype=np.int64,
            )
        # Under the semi-synchronous engine a server left behind the fleet
        # still executes old rounds on its own clock, so its flows flush
        # late, tagged with the *earlier* round they belong to. Those late
        # flows are legal in deferred mode; flows tagged with a future round
        # never are (run-ahead past the trainer's target is forbidden).
        deferred = (
            getattr(self.trainer.engine, "semi_sync_invariants", None) is not None
        )
        flow_bytes = 0
        flow_cost = 0
        for flow_round, sources, destinations, sizes, hops in batches:
            late = deferred and flow_round < round_index
            if flow_round != round_index and not late:
                self.violate(
                    "byte-ledger",
                    f"flows {sources.tolist()}->{destinations.tolist()} "
                    f"recorded under round {flow_round} during round "
                    f"{round_index}",
                    round_index,
                )
            if sizes.size == 0:
                continue
            if np.any(hops != 1):
                bad = int(np.argmax(hops != 1))
                self.violate(
                    "byte-ledger",
                    f"mesh flow {int(sources[bad])}->{int(destinations[bad])} "
                    f"claims {int(hops[bad])} hops; neighbor traffic is "
                    "single-hop",
                    round_index,
                )
            feasible = np.isin(sizes, self._feasible_size_array)
            if not feasible.all():
                bad = int(np.argmin(feasible))
                d = self.trainer.model.n_params
                self.violate(
                    "byte-ledger",
                    f"flow {int(sources[bad])}->{int(destinations[bad])} "
                    f"carries {int(sizes[bad])} bytes, which is not an "
                    f"analytic frame size for d = {d} parameters (Fig. 3: "
                    "4 + 8N - 4M, 12 (N - M), or the QUANTIZED size)",
                    round_index,
                )
            if not late:
                flow_bytes += int(sizes.sum())
                flow_cost += int((sizes * hops).sum())
        if flow_bytes != record.bytes_sent:
            self.violate(
                "byte-ledger",
                f"the round's flows sum to {flow_bytes} bytes but the round "
                f"record reports {record.bytes_sent}",
                round_index,
            )
        if flow_cost != record.cost:
            self.violate(
                "byte-ledger",
                f"the round's flows sum to cost {flow_cost} but the round "
                f"record reports {record.cost}",
                round_index,
            )

    def _check_hierarchy_ledger(self, record, batches) -> None:
        tiers = getattr(self.trainer.topology, "tiers", None)
        if tiers is None:
            return
        self.checks["hierarchy-ledger"] += 1
        deferred = (
            getattr(self.trainer.engine, "semi_sync_invariants", None) is not None
        )
        per_pair: Counter = Counter()
        for flow_round, sources, destinations, sizes, hops in batches:
            late = deferred and flow_round < record.round_index
            for source, destination, size in zip(
                sources.tolist(), destinations.tolist(), sizes.tolist()
            ):
                t_src, t_dst = tiers[source], tiers[destination]
                if abs(t_src - t_dst) > 1:
                    self.violate(
                        "hierarchy-ledger",
                        f"flow {source}->{destination} spans tiers "
                        f"{t_src}->{t_dst}; hierarchical traffic must stay "
                        "within adjacent tiers (edge <-> aggregator <-> "
                        "cloud, never skipping a level)",
                        record.round_index,
                    )
                if not late:
                    per_pair[(min(t_src, t_dst), max(t_src, t_dst))] += int(size)
        decomposed = sum(per_pair.values())
        if decomposed != record.bytes_sent:
            self.violate(
                "hierarchy-ledger",
                f"the per-tier-pair byte decomposition {dict(per_pair)!r} "
                f"sums to {decomposed} but the round record reports "
                f"{record.bytes_sent}: bytes leaked across the tier ledger",
                record.round_index,
            )

    def _check_byzantine_bound(self, record) -> None:
        plan = getattr(self.trainer, "byzantine_plan", None)
        spec = self.trainer.config.robust_aggregation
        if plan is None or spec is None:
            return
        self.checks["byzantine-bound"] += 1
        attackers = self.trainer.byzantine_nodes
        topology = self.trainer.topology
        for node in range(topology.n_nodes):
            if node in attackers:
                continue
            hostile = sum(
                1 for neighbor in topology.neighbors(node) if neighbor in attackers
            )
            if hostile > spec.f:
                self.violate(
                    "byzantine-bound",
                    f"honest server {node} has {hostile} byzantine neighbors "
                    f"but the {spec.kind} aggregator only tolerates f = "
                    f"{spec.f} per neighborhood: the robustness guarantee "
                    "is void for this node",
                    record.round_index,
                )

    def _check_drift_schedule(self, record) -> None:
        schedule = self.trainer.config.drift
        if schedule is None:
            return
        self.checks["drift-schedule"] += 1
        epoch = schedule.epoch(record.round_index)
        if epoch < self._drift_watermark:
            self.violate(
                "drift-schedule",
                f"the drift schedule reports epoch {epoch} at round "
                f"{record.round_index} after already reaching epoch "
                f"{self._drift_watermark}: epochs must be non-decreasing "
                "in the round index",
                record.round_index,
            )
        applied = getattr(self.trainer, "_drift_epoch", None)
        if applied is not None and applied != epoch:
            self.violate(
                "drift-schedule",
                f"the trainer holds shards for drift epoch {applied} but the "
                f"schedule places round {record.round_index} in epoch "
                f"{epoch}: a shard swap was missed or applied early",
                record.round_index,
            )
        self._drift_watermark = epoch

    def _check_error_feedback(self, record, down: frozenset) -> None:
        self.checks["error-feedback"] += 1
        servers = self.trainer.servers
        engine = self.trainer.engine
        # Semi-synchronous runs legitimately defer the identity on edges
        # whose delivered frames are still in the reorder buffers of a
        # receiver running behind the fleet: ``last_sent`` advanced at send
        # time, the receiver's view catches up when it reaches the sender's
        # round. Conservation of those frames is asserted by ``semi-sync``.
        in_flight_edges = getattr(engine, "in_flight_edges", None)
        in_flight = in_flight_edges() if in_flight_edges is not None else frozenset()
        lagging_nodes = getattr(engine, "lagging_nodes", None)
        lagging = lagging_nodes() if lagging_nodes is not None else frozenset()
        for server in servers:
            for neighbor in server.neighbors:
                if (server.node_id, neighbor) in in_flight:
                    continue
                if not np.array_equal(
                    server.last_sent[neighbor], servers[neighbor].views[server.node_id]
                ):
                    self.violate(
                        "error-feedback",
                        f"last_sent[{server.node_id}->{neighbor}] != "
                        f"views held by {neighbor}: the confirmed-delivery "
                        "reference-tracking identity broke",
                        record.round_index,
                    )
        byzantine = getattr(self.trainer, "byzantine_nodes", frozenset())
        for (source, destination), state in self.trainer._edge_states.items():
            if state.residual is None:
                continue
            if source in down or destination in down:
                continue  # the edge skipped this round; its residual is stale
            if source in byzantine:
                # An attacker compresses its *poisoned* transmit vector, so
                # its residual tracks tx - last_sent, not params - last_sent;
                # the honest-params identity intentionally does not hold.
                continue
            if source in lagging or destination in lagging:
                # A server behind the fleet last compressed in an older
                # round under that round's own outage pattern; its residual
                # is checked against the fleet's round here, so skip it.
                continue
            if not np.all(np.isfinite(state.residual)):
                self.violate(
                    "error-feedback",
                    f"edge {source}->{destination} holds a non-finite "
                    "error-feedback residual",
                    record.round_index,
                )
            expected = servers[source].params - servers[source].last_sent[destination]
            if not np.array_equal(state.residual, expected):
                gap = float(np.abs(state.residual - expected).max())
                self.violate(
                    "error-feedback",
                    f"edge {source}->{destination}: materialized residual != "
                    f"params - last_sent (max gap {gap:.3e}); the EF "
                    "accumulator drifted from the reference-tracking truth",
                    record.round_index,
                )

    def _check_semi_sync(self, record) -> None:
        probe = getattr(self.trainer.engine, "semi_sync_invariants", None)
        if probe is None:
            return
        self.checks["semi-sync"] += 1
        inv = probe()
        if inv["max_progress_staleness"] > inv["tau"]:
            self.violate(
                "semi-sync",
                f"a server started a round with a neighbor "
                f"{inv['max_progress_staleness']} rounds behind, beyond the "
                f"staleness bound tau = {inv['tau']}",
                record.round_index,
            )
        if not inv["monotonic_views"]:
            self.violate(
                "semi-sync",
                "a neighbor view was applied out of order: per-edge view "
                "versions must be strictly monotone (FIFO links + one frame "
                "per round make regressions impossible)",
                record.round_index,
            )
        frames, byte_ledger = inv["frames"], inv["bytes"]
        in_flight = frames["wire"] - frames["applied"] - frames["corrupted"]
        if in_flight < 0 or in_flight != frames["outstanding"]:
            self.violate(
                "semi-sync",
                f"frame conservation broke: {frames['wire']} on the wire != "
                f"{frames['applied']} applied + {frames['corrupted']} "
                f"corrupted + {frames['outstanding']} outstanding",
                record.round_index,
            )
        if in_flight != frames["buffered"]:
            self.violate(
                "semi-sync",
                f"deferred-delivery conservation broke at the round "
                f"boundary: {in_flight} frames unaccounted but "
                f"{frames['buffered']} sitting in reorder buffers (every "
                "scheduled arrival must be settled or buffered)",
                record.round_index,
            )
        bytes_in_flight = (
            byte_ledger["wire"] - byte_ledger["applied"] - byte_ledger["corrupted"]
        )
        if bytes_in_flight < 0 or bytes_in_flight != byte_ledger["buffered"]:
            self.violate(
                "semi-sync",
                f"byte conservation broke under deferred delivery: "
                f"{byte_ledger['wire']} sent != {byte_ledger['applied']} "
                f"applied + {byte_ledger['corrupted']} corrupted + "
                f"{byte_ledger['buffered']} buffered",
                record.round_index,
            )

    def _check_consensus_envelope(self, record) -> None:
        self.checks["consensus-envelope"] += 1
        consensus = record.consensus_error
        if not np.isfinite(record.mean_loss):
            self.violate(
                "consensus-envelope",
                f"mean loss is non-finite ({record.mean_loss!r}): the "
                "trajectory diverged",
                record.round_index,
            )
        if not np.isfinite(consensus) or consensus < 0:
            self.violate(
                "consensus-envelope",
                f"consensus residual is invalid ({consensus!r})",
                record.round_index,
            )
        self._envelope_rounds_seen += 1
        if self._envelope_rounds_seen <= _ENVELOPE_WARMUP_ROUNDS:
            opening = max(consensus, _CONSENSUS_FLOOR)
            if self._consensus_envelope is None:
                self._consensus_envelope = opening
            else:
                self._consensus_envelope = max(self._consensus_envelope, opening)
            return
        ceiling = self.consensus_slack * self._consensus_envelope
        if consensus > ceiling:
            self.violate(
                "consensus-envelope",
                f"consensus residual {consensus:.6e} left its monotone "
                f"envelope (opening level {self._consensus_envelope:.6e} × "
                f"slack {self.consensus_slack:g} = {ceiling:.6e}): EXTRA is "
                "diverging instead of contracting",
                record.round_index,
            )
