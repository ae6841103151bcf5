"""Directed Hausdorff distances, the periodic union, and density reports."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from signspectra import cli_io, density, finite, symbol
from signspectra.cloud import SpectrumCloud
from signspectra.density import (
    DensityReport,
    _fold_by_i,
    density_report,
    directed_hausdorff,
    disk_grid,
    periodic_union,
)
from signspectra.errors import CapExceededError
from signspectra.finite import enumerate_sigma

from oracles import density_report_full_scan, periodic_union_by_pattern


def _points(values):
    return np.asarray(values, dtype=complex)


def test_hausdorff_small_exact_cases():
    assert directed_hausdorff(_points([0]), _points([3, 4j])) == 3.0
    x = _points([0.25 + 1j, -2, 0.5j])
    assert directed_hausdorff(x, x) == 0.0
    assert directed_hausdorff(_points([1 + 1j]), _points([1 - 1j])) == 2.0
    with pytest.raises(ValueError):
        directed_hausdorff(_points([]), x)
    with pytest.raises(ValueError):
        directed_hausdorff(x, _points([]))


def test_hausdorff_is_directed():
    sigma1 = enumerate_sigma(1).values()
    two = _points([2])
    assert directed_hausdorff(two, sigma1) == 1.0
    assert directed_hausdorff(sigma1, two) == 3.0


def test_hausdorff_matches_brute_force_bitwise():
    # the bucket scan must pick the same nearest neighbors as a full scan,
    # so the results are equal as floats, not merely close; the rounded
    # clouds are full of exact duplicates, which only X drops first
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        ys = rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2, 2, 200)
        for x, y in ((xs, ys), (np.round(xs), np.round(ys))):
            brute = np.abs(x[:, None] - y[None, :]).min(axis=1).max()
            assert directed_hausdorff(_points(x), _points(y)) == brute


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
            got = directed_hausdorff(_points(xs), _points(part), best)
            want = np.abs(xs[:, None] - seen[None, :]).min(axis=1)
            assert np.array_equal(best, want) and got == want.max()
    with pytest.raises(ValueError):
        directed_hausdorff(_points(xs), _points(ys), np.zeros(3))
    with pytest.raises(ValueError):
        directed_hausdorff(_points([np.nan]), _points(ys))


def test_hausdorff_exact_duplicates_in_y_change_no_distance():
    # Y is not deduplicated: each value repeated up to three times, in
    # shuffled order, must give the brute-force distances, carried or not
    for seed in range(10):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        base = rng.uniform(-2, 2, 120) + 1j * rng.uniform(-2, 2, 120)
        ys = rng.permutation(np.concatenate([base, base[:60], base[:30], [base[0]] * 50]))
        want = np.abs(xs[:, None] - ys[None, :]).min(axis=1)
        assert np.unique(ys).size == base.size < ys.size
        assert directed_hausdorff(_points(xs), _points(ys)) == want.max()
        best = np.full(xs.size, np.inf)
        assert directed_hausdorff(_points(xs), _points(ys), best) == want.max()
        assert np.array_equal(best, want)


def test_hausdorff_exact_duplicates_in_bounded_memory():
    # every odd-size matrix has the eigenvalue 0, so accumulated clouds hold
    # thousands of exact zeros; they must not become a |X| x |Y| distance block
    zeros = np.zeros(3000, dtype=complex)
    x = _points(zeros)
    y = _points(np.concatenate([zeros, [1, 1j]]))
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
        calls.append(np.shape(k))
        return build(k)

    monkeypatch.setattr(density, "symbol_poly", counted)
    monkeypatch.setattr(symbol, "symbol_poly", counted)
    # effective periods 1, 2 and 4: one batched build over each period's
    # stack to find the distinct polynomials, one over the kept rows to solve
    assert len(periodic_union(2, 9)) == 81
    assert calls == [(1, 1), (1, 1), (3, 2), (2, 2), (2, 4), (1, 4)]


@pytest.mark.parametrize("max_m,samples", [(m, 17) for m in range(1, 7)] + [(8, 5)])
def test_periodic_union_matches_the_per_pattern_reference(max_m, samples):
    # the CSV text compares values, tags and the order of tied points,
    # which tells 0.0 from -0.0; below period 8 reversing the kept patterns
    # of each period leaves the text unchanged, at period 8 it does not
    got = b"".join(cli_io._csv_blocks(periodic_union(max_m, samples).sorted()))
    assert got == b"".join(cli_io._csv_blocks(periodic_union_by_pattern(max_m, samples).sorted()))


def test_periodic_union_period_cap():
    with pytest.raises(CapExceededError):
        periodic_union(11, 5)


def test_disk_grid_contract():
    v = disk_grid(0.25)
    assert np.array_equal(v, disk_grid(0.25))
    assert np.abs(v).max() <= 1 + 1e-12
    assert (v == 0).any()
    assert np.isclose(np.abs(v), 1.0, atol=1e-12).any()
    with pytest.raises(ValueError):
        disk_grid(0.0)
    # a 2^-10 step needs 2051^2 > 2^22 lattice points; a subnormal step
    # overflows (1 + step) / step to inf
    for step in (2.0**-10, 1e-9, 5e-324):
        with pytest.raises(CapExceededError, match=f"disk grid step {step}: "):
            disk_grid(step)
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
        got = disk_grid(step)
        assert got.tobytes() == np.array(want, dtype=complex).tobytes(), step


def test_density_report_small_run():
    rep = density_report(4, 1, 33, 0.3)
    assert sorted(rep.pi_distances) == [2, 3, 4]
    assert sorted(rep.disk_distances) == [2, 3, 4]
    assert rep.sigma_sizes == {2: 16, 3: 48, 4: 128}
    assert rep.pi_size == 99
    assert rep.monotone()


def test_density_report_matches_brute_force_over_merged_sigma():
    # the report scans only the new sigma_n at each n, carrying every query's
    # nearest distance; each entry must equal a full scan of sigma_{<=n}
    rep = density_report(7, 3, 33, 0.2)
    pi = periodic_union(3, 33).values()
    disk = disk_grid(0.2)
    merged = enumerate_sigma(1).values()
    for n in range(2, 8):
        merged = np.concatenate([merged, enumerate_sigma(n).values()])
        assert rep.sigma_sizes[n] == merged.size
        for x, got in ((pi, rep.pi_distances[n]), (disk, rep.disk_distances[n])):
            assert got == np.abs(x[:, None] - merged[None, :]).min(axis=1).max(), n


def _same_bits(a, b):
    return (a == b) & (np.signbit(a) == np.signbit(b))


def test_fold_by_i_is_an_exact_quarter_turn_into_the_first_quadrant():
    # every pair of parts from a set with both zeros, points on both axes and
    # random values; parts are assigned, so signed zeros reach the fold
    rng = np.random.default_rng(17)
    parts = np.concatenate([[0.0, -0.0, 1.0, -1.0, 2.5, -2.5], rng.uniform(-2, 2, 30)])
    z = np.empty(parts.size**2, dtype=complex)
    z.real, z.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
    got = _fold_by_i(z)
    zero = z == 0
    assert np.array_equal(got == 0, zero)
    assert ((got.real > 0) & (got.imag >= 0))[~zero].all()
    # bit for bit one of z, i z, -z, -i z, each built from swapped and negated parts
    x, y = z.real, z.imag
    turns = [(x, y), (-y, x), (-x, -y), (y, -x)]
    assert np.logical_or.reduce(
        [_same_bits(got.real, a) & _same_bits(got.imag, b) for a, b in turns]
    ).all()


def test_quadrant_and_its_quarter_turns_give_back_sigma():
    # the report holds each sigma_n as its distinct quadrant points; their
    # exact quarter turns must be sigma_n's values again, 0 and -0 alike
    for n in range(1, 11):
        v = enumerate_sigma(n).values()
        q = np.unique(density._quadrant(v))
        assert ((q.real > 0) & (q.imag >= 0) | (q == 0)).all()
        assert 4 * q.size <= np.unique(v).size + 3
        turned = density._unfolded(q)
        assert np.array_equal(np.unique(turned), np.unique(v)), n
    z = np.array([1 + 2j, -0.0 + 3j])
    x, y = z.real, z.imag
    turns = density._unfolded(z).reshape(4, -1)
    for got, (a, b) in zip(turns, [(x, y), (-y, x), (-x, -y), (y, -x)]):
        assert (_same_bits(got.real, a) & _same_bits(got.imag, b)).all()


def test_density_report_equals_a_scan_of_the_unfolded_queries():
    # c09's parameters: a carried scan of every query point, with no fold,
    # must give the report's distances as the same floats
    rep = density_report(8, 4, 257, 0.1)
    union = periodic_union(4, 257)
    query = np.concatenate([union.values(), disk_grid(0.1)])
    best = np.full(len(query), np.inf)
    fresh = enumerate_sigma(1)
    for n in range(2, 9):
        directed_hausdorff(query, fresh.merged(enumerate_sigma(n)).values(), best)
        fresh = SpectrumCloud()
        assert rep.pi_distances[n] == best[: len(union)].max(), n
        assert rep.disk_distances[n] == best[len(union) :].max(), n


def _parts(points):
    return list(zip(points.real.tolist(), points.imag.tolist()))


def _record_scans(monkeypatch):
    # every scan density_report makes, in call order (the probe scans of
    # every size, then the sweep scans): its query points as (re, im) pairs
    # and their carried distances after the call
    scan, calls = density.directed_hausdorff, []

    def record(xs, ys, best=None):
        result = scan(xs, ys, best)
        calls.append(dict(zip(_parts(xs), best.tolist())))
        return result

    monkeypatch.setattr(density, "directed_hausdorff", record)
    return calls


def _turns(x, y):
    return ((x, y), (-y, x), (-x, -y), (y, -x))


def test_each_folded_query_carries_the_distance_of_its_whole_orbit(monkeypatch):
    # the maxima can survive a wrong fold or a wrong drop, so compare point
    # by point: in every sweep call, the distance the report carries for a
    # live folded point must be, bit for bit, the unfolded scan's distance of
    # every point of its orbit under z -> i z, found here from (re, im)
    # quarter turns; a dropped point's last carried distance must be at
    # least its true distance and below its series' final maximum
    calls = _record_scans(monkeypatch)
    rep = density_report(8, 4, 257, 0.1)
    monkeypatch.undo()
    # seven probe scans, then seven sweep scans
    assert len(calls) == 2 * 7
    sweep = calls[7:]
    union = periodic_union(4, 257)
    points = np.concatenate([union.values(), disk_grid(0.1)])
    in_pi = np.arange(len(points)) < len(union)
    best = np.full(len(points), np.inf)
    fresh = enumerate_sigma(1)
    history = []
    for n, live in zip(range(2, 9), sweep, strict=True):
        directed_hausdorff(points, fresh.merged(enumerate_sigma(n)).values(), best)
        fresh = SpectrumCloud()
        history.append(best.copy())
        for (x, y), want in zip(_parts(points), best.tolist()):
            got = [live[q] for q in _turns(x, y) if q in live]
            assert all(d == want for d in got), (n, x, y)
    # every orbit starts live, and once dropped a point stays out
    folded = [next(q for q in _turns(x, y) if q in sweep[0]) for x, y in _parts(points)]
    assert len(sweep[0]) == len(set(folded))
    final_max = {True: best[in_pi].max(), False: best[~in_pi].max()}
    assert final_max == {True: rep.pi_distances[8], False: rep.disk_distances[8]}
    dropped = 0
    for i, (before, after) in enumerate(zip(sweep, sweep[1:])):
        assert set(after) <= set(before)
        for j, q in enumerate(folded):
            if q in before and q not in after:
                dropped += 1
                last = before[q]
                assert last == history[i][j] and last >= best[j], (i, q)
                assert last < final_max[bool(in_pi[j])], (i, q)
    assert dropped > len(sweep[0]) // 2


def test_density_report_input_checks(monkeypatch):
    # every refusal comes before the union is solved
    def unreachable(*args):
        raise AssertionError("periodic_union called for refused input")

    monkeypatch.setattr(density, "periodic_union", unreachable)
    with pytest.raises(ValueError):
        density_report(1, 1, 33, 0.3)
    with pytest.raises(CapExceededError):
        density_report(17, 1, 33, 0.3)
    with pytest.raises(CapExceededError, match="points above cap 4194304"):
        density_report(3, 1, 17, 1e-9)


def test_density_report_refuses_the_sample_cap_before_any_solve(monkeypatch):
    def unreachable(*args):
        raise AssertionError("roots_many called for refused input")

    monkeypatch.setattr(finite, "roots_many", unreachable)
    monkeypatch.setattr(symbol, "roots_many", unreachable)
    with pytest.raises(CapExceededError, match=f"above cap {symbol.SAMPLES_CAP}"):
        density_report(3, 1, symbol.SAMPLES_CAP + 1, 0.5)


@pytest.mark.parametrize("case", [(7, 3, 33, 0.2), (10, 4, 65, 0.1), (12, 6, 257, 0.05)])
def test_pruned_report_equals_the_full_scan(monkeypatch, case):
    # the floors only decide which points are scanned: with the default
    # probe, a probe of every point and a probe of one point per series the
    # report must equal the carried scan of every query point at every size
    want = repr(density_report_full_scan(*case))
    calls = _record_scans(monkeypatch)
    assert repr(density_report(*case)) == want
    for stride in (1, 10**9):
        monkeypatch.setattr(density, "_PROBE_STRIDE", stride)
        calls.clear()
        assert repr(density_report(*case)) == want, stride
        # sizes 2..max_n: one probe scan each, then one sweep scan each
        sizes = case[0] - 1
        assert len(calls) == 2 * sizes
        probe = {len(carried) for carried in calls[:sizes]}
        queries = len(calls[sizes])
        # one probe size over all calls: every point, or one point per series
        assert len(probe) == 1 and probe <= ({queries} if stride == 1 else {1, 2})


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
    )


def test_monotone_slack_semantics(monkeypatch):
    flat = {2: 1.0, 3: 1.0 + 5e-13}
    assert _report_with(flat, {2: 0.5, 3: 0.4}).monotone()
    rising = {2: 1.0, 3: 1.01}
    assert not _report_with(rising, {2: 0.5, 3: 0.4}).monotone()
    assert not _report_with({2: 0.5, 3: 0.4}, rising).monotone()
    monkeypatch.setattr(density, "MONOTONE_SLACK", 0.1)
    assert _report_with(rising, {2: 0.5, 3: 0.4}).monotone()
