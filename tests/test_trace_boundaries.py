"""The benchmark tracer in perfbench/tracing.py wraps module attributes by
name, so each one must exist and be called through its module.  A refactor
that drops or bypasses one of them fails here, not only in a traced
benchmark run."""

from __future__ import annotations

from pathlib import Path

from signspectra import finite, polyroot, symbol
from signspectra.signmodel import parse_sign_vector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_boundaries_resolve_and_count(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        assert finite.roots_many is not polyroot.roots_many
        finite.enumerate_sigma(3)
        symbol.periodic_spectrum(parse_sign_vector("+"), 5)
    assert finite.roots_many is polyroot.roots_many
    # 8 patterns of length 3 fall into 6 reversal classes: one batched
    # charpoly call builds all six rows, and each row is solved once
    assert tracer.counts["finite.charpoly_calls"] == 1
    assert tracer.counts["polyroot.rows"] == 6 + 5
    assert tracer.counts["symbol.symbol_poly_calls"] == 1
