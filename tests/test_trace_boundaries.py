"""The benchmark tracer in perfbench/tracing.py wraps module attributes by
name, so each one must exist and be called through its module.  A refactor
that drops or bypasses one of them fails here, not only in a traced
benchmark run."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from signspectra import cli_io, density, embed, finite, polyroot, symbol
from signspectra.signmodel import parse_sign_vector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing.Tracer()


def test_trace_boundaries_resolve_and_count(monkeypatch):
    tracer = _tracer(monkeypatch)
    with tracer.installed():
        assert finite.roots_many is not polyroot.roots_many
        finite.enumerate_sigma(3)
        symbol.periodic_spectrum(parse_sign_vector("+"), 5)
    assert finite.roots_many is polyroot.roots_many
    # 8 patterns of length 3 fall into 3 {reversal, negation} orbits: one
    # batched charpoly call builds the three rows, and each row is solved once
    assert tracer.counts["finite.charpoly_calls"] == 1
    assert tracer.counts["polyroot.rows"] == 3 + 5
    assert tracer.counts["symbol.symbol_poly_calls"] == 1


def test_trace_boundaries_see_the_union_and_the_density_scan(monkeypatch):
    tracer = _tracer(monkeypatch)
    with tracer.installed():
        density.periodic_union(3, 5)
    # effective periods 1, 2, 3, 4 and 6: per period one symbol_poly call
    # finds the distinct rows and one inside periodic_spectrum solves them
    assert tracer.counts["symbol.symbol_poly_calls"] == 2 * 5
    assert tracer.counts["polyroot.calls"] == 5

    tracer = _tracer(monkeypatch)
    with tracer.installed():
        density.density_report(5, 2, 9, 0.5)
    # one Hausdorff scan per size 2..5, the union and the disk in one query
    # of one point per orbit under z -> i z, found here from (re, im) pairs
    assert tracer.counts["density.hausdorff_calls"] == 5 - 1
    q = np.concatenate([density.periodic_union(2, 9).values(), density.disk_grid(0.5).values()])
    orbits = {min((x, y), (-y, x), (-x, -y), (y, -x)) for x, y in zip(q.real, q.imag)}
    assert len(orbits) < q.size
    assert tracer.counts["density.hausdorff_query_points"] == 4 * len(orbits)
    assert tracer.counts["polyroot.calls"] == 3 + 5
    assert tracer.counts["symbol.symbol_poly_calls"] == 2 * 3


def test_trace_boundaries_see_the_embed_command(monkeypatch, tmp_path):
    # the embed-sweep workload's boundaries: one verify_embedding call, one
    # symbol polynomial, and a data file plus its manifest
    out = tmp_path / "embed.json"
    tracer = _tracer(monkeypatch)
    with tracer.installed():
        assert embed.roots_many is not polyroot.roots_many
        assert cli_io.main(["embed", "--k=+-+", "--n", "5", "--witness", "--out", str(out)]) == 0
    assert embed.roots_many is polyroot.roots_many
    result = embed.verify_embedding(parse_sign_vector("+-+"), 5, want_witness=True)
    assert tracer.counts["embed.verify_calls"] == 1
    assert tracer.counts["embed.targets"] == len(result.targets) > 0
    assert len(result.witness_residuals) == len(result.targets)
    assert tracer.counts["symbol.symbol_poly_calls"] == 1
    assert tracer.counts["cli_io.files_written"] == 2


def test_trace_boundaries_put_every_data_file_in_the_emit_span(monkeypatch, tmp_path):
    # write_manifest writes the data file itself, so the cli_io.emit span
    # covers the CSV bytes as well as the manifest
    out = tmp_path / "sigma3.csv"
    tracer = _tracer(monkeypatch)
    with tracer.installed():
        assert cli_io.main(["enumerate", "--n", "3", "--out", str(out)]) == 0
    assert tracer.counts["cli_io.files_written"] == 2
    assert tracer.counts["cli_io.bytes_written"] > out.stat().st_size > 0
    assert tracer.total["cli_io.emit"] > 0
