"""QUANTIZED-frame edge cases: degenerate vectors, bit-width extremes,
non-finite rejection, and the strictly-cheaper selection boundary.

The happy paths live in ``test_frame_roundtrip.py`` (200 random vectors per
format); this module pins the corners where the quantized extension could
silently disturb the paper's exact Fig. 3 accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.base import EdgeState, edge_rng
from repro.compression.quantize import (
    TernGradCompressor,
    UniformQuantizer,
    ternarize,
)
from repro.exceptions import ProtocolError
from repro.network.codec import decode_update, encode_update
from repro.network.frames import (
    FrameFormat,
    MAX_QUANT_BITS,
    MIN_QUANT_BITS,
    check_quant_bits,
    dequantize_levels,
    encoded_update_bytes,
    frame_size_bytes,
    quantization_levels,
    quantized_frame_bytes,
    select_frame_format,
)
from repro.network.messages import ParameterUpdate, QuantizationInfo
from tests.compression.conftest import compress_rows


def _edge_state(n_params: int, reference: np.ndarray) -> EdgeState:
    state = EdgeState(
        source=0,
        destination=1,
        reference=reference,
        rng=edge_rng(0, 0, 1),
    )
    return state


class TestZeroRangeVectors:
    """A drift with zero dynamic range must quantize to 'send nothing'."""

    def test_uniform_zero_drift_sends_empty_payload(self):
        reference = np.linspace(-1.0, 1.0, 8)
        state = _edge_state(8, reference)
        payload = UniformQuantizer(bits=4).compress(
            reference.copy(), state, {}
        )
        assert payload.indices.size == 0
        assert payload.values.size == 0
        assert "quantization" not in payload.meta

    def test_uniform_batch_zero_rows_match_scalar_path(self):
        quantizer = UniformQuantizer(bits=4)
        references = np.vstack([np.zeros(6), np.linspace(0, 1, 6)])
        currents = np.vstack([np.zeros(6), np.linspace(0, 1, 6) + 0.25])
        states = [_edge_state(6, references[i]) for i in range(2)]
        batch = compress_rows(quantizer, currents, references)
        assert np.flatnonzero(batch.mask[0]).size == 0  # zero-drift row
        single = quantizer.compress(currents[1], states[1], {})
        np.testing.assert_array_equal(np.flatnonzero(batch.mask[1]), single.indices)
        np.testing.assert_array_equal(batch.values[1][single.indices], single.values)

    def test_ternarize_zero_vector_passes_through(self):
        rng = np.random.default_rng(0)
        out = ternarize(np.zeros(5), rng)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_terngrad_zero_drift_sends_empty_payload(self):
        reference = np.full(7, 3.25)
        state = _edge_state(7, reference)
        payload = TernGradCompressor().compress(reference.copy(), state, {})
        assert payload.indices.size == 0

    def test_quantization_info_rejects_zero_scale(self):
        # A zero-range vector must never reach the wire as a frame: scale 0
        # would make every level meaningless.
        with pytest.raises(ProtocolError):
            QuantizationInfo(bits=4, scale=0.0, levels=np.array([1]))


class TestBitWidthExtremes:
    """b=1 is rejected (a single level cannot carry sign); b=2 is the
    single-magnitude case with levels in {-1, 0, +1}."""

    @pytest.mark.parametrize("bits", [1, 0, -3, 17, 64])
    def test_out_of_range_bit_widths_rejected(self, bits):
        with pytest.raises(ProtocolError):
            check_quant_bits(bits)
        with pytest.raises(ProtocolError):
            quantized_frame_bytes(8, 2, bits)

    @pytest.mark.parametrize("bits", [True, 2.0, "2", None])
    def test_non_int_bit_widths_rejected(self, bits):
        with pytest.raises(ProtocolError):
            check_quant_bits(bits)

    def test_boundary_bit_widths_accepted(self):
        assert check_quant_bits(MIN_QUANT_BITS) == 2
        assert check_quant_bits(MAX_QUANT_BITS) == 16

    def test_two_bit_frames_have_single_level_magnitude(self):
        assert quantization_levels(2) == 1
        # level * (scale / L) with L = 1: levels reconstruct to +-scale.
        np.testing.assert_array_equal(
            dequantize_levels(np.array([-1, 0, 1]), 0.75, 2),
            np.array([-0.75, 0.0, 0.75]),
        )

    def test_two_bit_packing_round_trips_through_the_codec(self):
        """The minimum width exercises the densest bit-packing: 4 levels
        per byte, biased by L=1 so codes are {0, 1, 2}."""
        total = 9
        indices = np.arange(total, dtype=np.int64)
        levels = np.array([-1, 1, -1, 1, 1, -1, -1, 1, -1], dtype=np.int64)
        scale = 0.5
        reference = np.zeros(total)
        update = ParameterUpdate(
            sender=3,
            round_index=12,
            total_params=total,
            indices=indices,
            values=reference[indices] + dequantize_levels(levels, scale, 2),
            quantization=QuantizationInfo(bits=2, scale=scale, levels=levels),
        )
        assert update.frame_format is FrameFormat.QUANTIZED
        # Dense frame (K == N): no index list; 9 levels at 2 bits pack into
        # ceil(18/8) = 3 bytes after the 14-byte prologue.
        assert update.size_bytes == 14 + 3
        decoded = decode_update(
            encode_update(update), FrameFormat.QUANTIZED, total, 3, 12
        )
        np.testing.assert_array_equal(decoded.quantization.levels, levels)
        np.testing.assert_array_equal(
            decoded.apply_to(reference), update.apply_to(reference)
        )

    def test_two_bit_levels_beyond_unit_magnitude_rejected(self):
        with pytest.raises(ProtocolError):
            QuantizationInfo(bits=2, scale=1.0, levels=np.array([2]))


class TestNonFiniteRejection:
    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_bad_scales_rejected(self, scale):
        with pytest.raises(ProtocolError):
            QuantizationInfo(bits=4, scale=scale, levels=np.array([1]))

    def test_float_levels_rejected(self):
        with pytest.raises(ProtocolError):
            QuantizationInfo(bits=4, scale=1.0, levels=np.array([1.5]))

    def test_level_overflow_rejected(self):
        cap = quantization_levels(4)
        with pytest.raises(ProtocolError):
            QuantizationInfo(bits=4, scale=1.0, levels=np.array([cap + 1]))


class TestStrictlyCheaperBoundary:
    """QUANTIZED may only win when *strictly* smaller than the paper's two
    formats — a tie keeps the Fig. 3 choice so full-precision accounting
    is never disturbed by the extension."""

    def test_exact_tie_keeps_the_classic_format(self):
        # d=4, M=2, K=2: classic pick is INDEX_VALUE (4 > 2*2+1 is false)
        # at 12*2 = 24 bytes. Quantized at b=8: 14 + 4*2 + ceil(16/8) = 24.
        assert frame_size_bytes(4, 2, FrameFormat.INDEX_VALUE) == 24
        assert quantized_frame_bytes(4, 2, 8) == 24
        assert select_frame_format(4, 2, bits=8) is FrameFormat.INDEX_VALUE
        assert encoded_update_bytes(4, 2, 8) == 24

    def test_one_byte_cheaper_flips_to_quantized(self):
        # Same shape at b=4: 14 + 8 + ceil(8/8) = 23 < 24.
        assert quantized_frame_bytes(4, 2, 4) == 23
        assert select_frame_format(4, 2, bits=4) is FrameFormat.QUANTIZED
        assert encoded_update_bytes(4, 2, 4) == 23

    def test_without_bits_the_paper_rule_is_untouched(self):
        # N > 2M + 1 boundary: N=4, M=1 -> UNCHANGED_INDEX; N=3, M=1 -> tie
        # goes to INDEX_VALUE (the paper's "otherwise" branch).
        assert select_frame_format(4, 1) is FrameFormat.UNCHANGED_INDEX
        assert select_frame_format(3, 1) is FrameFormat.INDEX_VALUE

    def test_quantized_never_wins_at_high_precision(self):
        # b=16 on a mostly-suppressed update: 14 + 4K + 2K >= 12K for K <= 7,
        # so the classic sparse frame keeps winning.
        for total in range(4, 30):
            for unsent in range(total + 1):
                sent = total - unsent
                if sent == 0:
                    continue
                chosen = select_frame_format(total, unsent, bits=16)
                assert frame_size_bytes(
                    total, unsent, chosen, 16
                ) <= frame_size_bytes(
                    total,
                    unsent,
                    select_frame_format(total, unsent),
                )
