"""Directed Hausdorff distances, the periodic union, and density reports."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from signspectra.cloud import SpectrumCloud
from signspectra.density import (
    DensityReport,
    density_report,
    directed_hausdorff,
    disk_grid,
    periodic_union,
)
from signspectra.errors import CapExceededError
from signspectra.finite import enumerate_sigma


def _cloud(values):
    return SpectrumCloud.from_values(np.asarray(values, dtype=complex), "t")


def test_hausdorff_small_exact_cases():
    assert directed_hausdorff(_cloud([0]), _cloud([3, 4j])) == 3.0
    x = _cloud([0.25 + 1j, -2, 0.5j])
    assert directed_hausdorff(x, x) == 0.0
    assert directed_hausdorff(_cloud([1 + 1j]), _cloud([1 - 1j])) == 2.0
    with pytest.raises(ValueError):
        directed_hausdorff(_cloud([]), x)
    with pytest.raises(ValueError):
        directed_hausdorff(x, _cloud([]))


def test_hausdorff_is_directed():
    sigma1 = enumerate_sigma(1)
    two = _cloud([2])
    assert directed_hausdorff(two, sigma1) == 1.0
    assert directed_hausdorff(sigma1, two) == 3.0


def test_hausdorff_matches_brute_force_bitwise():
    # the bucket scan must pick the same nearest neighbors as a full scan,
    # so the results are equal as floats, not merely close; the rounded
    # clouds are full of exact duplicates, which the scan drops first
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        ys = rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2, 2, 200)
        for x, y in ((xs, ys), (np.round(xs), np.round(ys))):
            brute = np.abs(x[:, None] - y[None, :]).min(axis=1).max()
            assert directed_hausdorff(_cloud(x), _cloud(y)) == brute


def test_hausdorff_carried_distances_cover_the_union_of_parts():
    # one carried array per query point, fed Y in parts, must end at the
    # brute-force nearest distance to the union of the parts seen so far
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-2, 2, 60) + 1j * rng.uniform(-2, 2, 60)
        ys = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
        best = np.full(xs.size, np.inf)
        seen = np.empty(0, dtype=complex)
        for part in np.split(ys, [5, 80]):
            seen = np.concatenate([seen, part])
            got = directed_hausdorff(_cloud(xs), _cloud(part), best)
            want = np.abs(xs[:, None] - seen[None, :]).min(axis=1)
            assert np.array_equal(best, want) and got == want.max()
    with pytest.raises(ValueError):
        directed_hausdorff(_cloud(xs), _cloud(ys), np.zeros(3))
    with pytest.raises(ValueError):
        directed_hausdorff(_cloud([np.nan]), _cloud(ys))


def test_hausdorff_exact_duplicates_in_bounded_memory():
    # every odd-size matrix has the eigenvalue 0, so accumulated clouds hold
    # thousands of exact zeros; they must not become a |X| x |Y| distance block
    zeros = np.zeros(3000, dtype=complex)
    x = _cloud(zeros)
    y = _cloud(np.concatenate([zeros, [1, 1j]]))
    tracemalloc.start()
    try:
        assert directed_hausdorff(x, y) == 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_periodic_union_dedups_equivalent_patterns():
    # m <= 2 collapses to four distinct even-parity trace polynomials
    # (degrees 1, 2, 2, 4), so 9 samples give 9 + 18 + 18 + 36 points
    assert len(periodic_union(2, 9)) == 81


def test_periodic_union_builds_each_symbol_polynomial_once(monkeypatch):
    from signspectra import density, symbol

    calls = []
    build = symbol.symbol_poly

    def counted(k):
        calls.append(k)
        return build(k)

    monkeypatch.setattr(density, "symbol_poly", counted)
    monkeypatch.setattr(symbol, "symbol_poly", counted)
    # six patterns of period <= 2, four of them kept: one build per pattern
    assert len(periodic_union(2, 9)) == 81
    assert len(calls) == 6


def test_periodic_union_period_cap():
    with pytest.raises(CapExceededError):
        periodic_union(11, 5)


def test_disk_grid_contract():
    g = disk_grid(0.25)
    v = g.values()
    assert np.array_equal(v, disk_grid(0.25).values())
    assert np.abs(v).max() <= 1 + 1e-12
    assert (v == 0).any()
    assert np.isclose(np.abs(v), 1.0, atol=1e-12).any()
    assert set(g.tags()) == {"disk"}
    with pytest.raises(ValueError):
        disk_grid(0.0)
    # the scalar lattice loop is the bitwise reference for the array version
    for step in (0.25, 0.1, 0.07):
        reach = math.ceil((1.0 + step) / step)
        want = []
        for i in range(-reach, reach + 1):
            for j in range(-reach, reach + 1):
                z = complex(i * step, j * step)
                if abs(z) <= 1.0:
                    want.append(z)
                elif abs(z) <= 1.0 + step * math.sqrt(2.0):
                    want.append(z / abs(z))
        got = disk_grid(step).values()
        assert got.tobytes() == np.array(want, dtype=complex).tobytes(), step


def test_density_report_small_run():
    rep = density_report(4, 1, 33, 0.3)
    assert sorted(rep.pi_distances) == [2, 3, 4]
    assert sorted(rep.disk_distances) == [2, 3, 4]
    assert rep.sigma_sizes == {2: 16, 3: 48, 4: 128}
    assert rep.pi_size == 99
    assert rep.monotone()
    assert rep.wall_time_s > 0


def test_density_report_matches_brute_force_over_merged_sigma():
    # the report scans only the new sigma_n at each n, carrying every query's
    # nearest distance; each entry must equal a full scan of sigma_{<=n}
    rep = density_report(7, 3, 33, 0.2)
    pi = periodic_union(3, 33).values()
    disk = disk_grid(0.2).values()
    merged = enumerate_sigma(1).values()
    for n in range(2, 8):
        merged = np.concatenate([merged, enumerate_sigma(n).values()])
        assert rep.sigma_sizes[n] == merged.size
        for x, got in ((pi, rep.pi_distances[n]), (disk, rep.disk_distances[n])):
            assert got == np.abs(x[:, None] - merged[None, :]).min(axis=1).max(), n


def test_density_report_input_checks():
    with pytest.raises(ValueError):
        density_report(1, 1, 33, 0.3)
    with pytest.raises(CapExceededError):
        density_report(17, 1, 33, 0.3)


def test_density_report_json_shape():
    rep = density_report(3, 1, 17, 0.5)
    d = rep.to_json_dict()
    assert set(d) == {
        "disk_distances",
        "params",
        "pi_distances",
        "pi_size",
        "sigma_sizes",
    }
    assert set(d["pi_distances"]) == {"2", "3"}
    assert d["params"] == {
        "disk_step": 0.5,
        "max_m": 1,
        "max_n": 3,
        "samples": 17,
    }
    # wall time must not leak into regression data
    assert "wall_time_s" not in d


def _report_with(pi, disk):
    return DensityReport(
        max_n=max(pi),
        max_m=1,
        samples=3,
        disk_step=0.5,
        pi_size=1,
        sigma_sizes={n: 1 for n in pi},
        pi_distances=pi,
        disk_distances=disk,
        wall_time_s=0.0,
    )


def test_monotone_slack_semantics():
    flat = {2: 1.0, 3: 1.0 + 5e-13}
    assert _report_with(flat, {2: 0.5, 3: 0.4}).monotone()
    rising = {2: 1.0, 3: 1.01}
    assert not _report_with(rising, {2: 0.5, 3: 0.4}).monotone()
    assert not _report_with({2: 0.5, 3: 0.4}, rising).monotone()
    assert _report_with(rising, {2: 0.5, 3: 0.4}).monotone(slack=0.1)
