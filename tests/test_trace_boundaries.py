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
        density.density_report(6, 3, 33, 0.25)
    # the union and the disk in one query of one point per orbit under
    # z -> i z, found here from (re, im) pairs as the turn in the quadrant
    # re > 0, im >= 0 (0 stays 0), in the fold's sorted order
    union = density.periodic_union(3, 33).values()
    q = np.concatenate([union, density.disk_grid(0.25)])
    orbits = {}  # folded point -> its series, True for the union
    for i, (x, y) in enumerate(zip(q.real, q.imag)):
        turns = [(a, b) for a, b in ((x, y), (-y, x), (-x, -y), (y, -x)) if a > 0 and b >= 0]
        orbits.setdefault(turns[0] if turns else (0.0, 0.0), set()).add(i < union.size)
    folded = sorted(orbits)
    assert len(folded) < q.size
    # a probe of every _PROBE_STRIDE-th point of each series is scanned
    # against each size; its largest distance per series is that series' floor
    probed = set()
    for series in (True, False):
        probed.update([p for p in folded if series in orbits[p]][:: density._PROBE_STRIDE])
    merged = finite.enumerate_sigma(1).values()
    dist = {}
    for n in range(2, 7):
        merged = np.concatenate([merged, finite.enumerate_sigma(n).values()])
        dist[n] = {p: float(np.abs(complex(*p) - merged).min()) for p in folded}
    floor = {
        series: max(dist[6][p] for p in probed if series in orbits[p]) for series in (True, False)
    }
    # the sweep at n scans the points whose distance at n - 1 is not below
    # their floor, the smaller one for a point of both series
    live = [
        sum(n == 2 or dist[n - 1][p] >= min(floor[s] for s in orbits[p]) for p in folded)
        for n in range(2, 7)
    ]
    assert live[0] == len(folded) > live[-1]
    # one probe scan and one sweep scan per size 2..6
    assert tracer.counts["density.hausdorff_calls"] == 2 * 5
    assert tracer.counts["density.hausdorff_query_points"] == 5 * len(probed) + sum(live)
    # effective periods 1, 2, 3, 4 and 6, then sizes 1..6
    assert tracer.counts["polyroot.calls"] == 5 + 6
    assert tracer.counts["symbol.symbol_poly_calls"] == 2 * 5


def test_trace_boundaries_see_the_embed_command(monkeypatch, tmp_path):
    # the embed-sweep workload's boundaries: one verify_embedding call, one
    # symbol polynomial, and a data file plus its manifest
    out = tmp_path / "embed.json"
    tracer = _tracer(monkeypatch)
    with tracer.installed():
        assert embed.roots_many is not polyroot.roots_many
        assert cli_io.main(["embed", "--k=+-+", "--n", "5", "--witness", "--out", str(out)]) == 0
    assert embed.roots_many is polyroot.roots_many
    result = embed.verify_embedding(parse_sign_vector("+-+"), 5)
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
