"""Reference vs vectorized engine parity for every compressor.

The subsystem's contract is that both engines share the compressor
implementations and per-edge state, so every scheme the vectorized
engine's one batch round serves — the paper's presets passed as
``compressor=``, the array kernels and the per-edge default — must produce the *identical* run on both: same per-round records,
same flow ledger, same final parameters, clean and under the fault plan.
"""

from __future__ import annotations

import pytest

from tests.compression.conftest import make_trainer, run_trace

SPECS = [
    "ape",
    "changed_only",
    "dense",
    "topk:k=3",
    "randomk:k=2",
    "uniform:bits=4",
    "terngrad",
    "ef:topk:k=3",
    "ef:uniform:bits=6",
    "ef:randomk:k=2",
    "ef:terngrad",
]


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("spec", SPECS)
def test_engines_agree_bit_for_bit(spec, faulty):
    reference = run_trace(make_trainer("reference", faulty=faulty, compressor=spec))
    vectorized = run_trace(make_trainer("vectorized", faulty=faulty, compressor=spec))
    assert reference == vectorized


def test_scheme_name_carries_spec_label():
    trainer = make_trainer("reference", compressor="topk:k=3", max_rounds=2)
    result = trainer.run(stop_on_convergence=False)
    assert result.scheme == "snap+topk(k=3)"
    assert result.info["compressor"] == "topk(k=3)"
