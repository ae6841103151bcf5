"""The cloud's one ranking: the sort order and the emitters' number tables."""

from __future__ import annotations

import re

import numpy as np
import pytest

from signspectra import cli_io, finite
from signspectra import cloud as cloud_module
from signspectra.cloud import SpectrumCloud, _check_key_span
from signspectra.density import PERIOD_CAP, periodic_union
from signspectra.embed import verify_embedding
from signspectra.finite import ENUMERATION_CAP, enumerate_sigma, finite_eigenvalues
from signspectra.signmodel import parse_sign_vector
from signspectra.symbol import periodic_spectrum

from oracles import expanded, lexsorted, number_fields_reference

_NAN = np.nan
# parts that tie or order unusually: both zeros, both infinities, nan of both
# signs, the smallest subnormals and normals, and a few repeated plain values
_POOL = np.array([0.0, -0.0, np.inf, -np.inf, _NAN, np.copysign(_NAN, -1.0), 5e-324,
                  -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0,
                  1 / 3, -1 / 3, 2.0, -2.0, 1e300, -1e-300])


def _adversarial(rng, size: int, ncodes: int) -> SpectrumCloud:
    pool = np.r_[_POOL, rng.normal(size=8)]
    parts = rng.choice(pool, size=(size, 2))
    return _cloud(parts, rng.integers(0, ncodes, size), ncodes)


def _cloud(parts: np.ndarray, codes: np.ndarray, ncodes: int) -> SpectrumCloud:
    values = np.empty(len(parts), dtype=complex)
    values.real, values.imag = parts[:, 0], parts[:, 1]  # keeps -0.0 and nan signs
    return SpectrumCloud(values, codes, [f"t{i:05d}" for i in range(ncodes)])


def _clouds():
    rng = np.random.default_rng(28)
    for size in (0, 1, 2, 3, 17, 300, 2500):
        for ncodes in (1, 2, 9, 3084):
            for _ in range(3):
                yield _adversarial(rng, size, ncodes)


def _bits(values: np.ndarray) -> bytes:
    return values.view(np.uint64).tobytes()


def test_ranked_order_is_the_lexsort_order():
    # points equal in (re, im, code) differ in bits only as -0.0 and +0.0 or
    # as nans of either sign, and the pool has both: so equal bits and codes
    # show that ties keep cloud order, as np.lexsort keeps them
    count = 0
    for cloud in _clouds():
        got, want = cloud.sorted(), lexsorted(cloud)
        assert _bits(got.values()) == _bits(want.values())
        assert np.array_equal(got.codes(), want.codes())
        count += 1
    assert count == 84


def test_sorted_cloud_carries_the_ranks_of_its_own_order():
    for cloud in _clouds():
        s = cloud.sorted()
        mags, index = s.magnitudes()
        fresh = SpectrumCloud(s.values(), s.codes(), s.table()).magnitudes()
        assert np.array_equal(mags, fresh[0], equal_nan=True)
        assert np.array_equal(index, fresh[1])
        a = np.abs(np.stack([s.values().real, s.values().imag]))
        assert np.array_equal(mags[index], a, equal_nan=True)


def _reference_fields(fmt, cloud, *columns):
    return number_fields_reference(fmt, *(x for x, _ in columns))


def _reference_blocks(monkeypatch, kind: str, cloud: SpectrumCloud) -> bytes:
    # the emitter over the lexsorted points, its tables from a second np.unique
    with monkeypatch.context() as mp:
        mp.setattr(cli_io, "_number_fields", _reference_fields)
        return b"".join(cli_io._CLOUD_BLOCKS[kind](lexsorted(expanded(cloud)), {"k": "+"}))


@pytest.mark.parametrize("kind", ["csv", "json", "svg"])
def test_emitted_bytes_equal_lexsort_and_the_old_tables(monkeypatch, kind):
    for cloud in _clouds():
        if kind == "json":
            # JSON clouds hold solved roots only, so every float is finite
            v = cloud.values()
            keep = np.isfinite(v.real) & np.isfinite(v.imag)
            cloud = SpectrumCloud(v[keep], cloud.codes()[keep], cloud.table())
        got = b"".join(cli_io._CLOUD_BLOCKS[kind](cloud.sorted(), {"k": "+"}))
        assert got == _reference_blocks(monkeypatch, kind, cloud)


@pytest.mark.parametrize("kind", ["csv", "json", "svg"])
def test_emitted_union_and_sigma_bytes_are_unchanged(monkeypatch, kind):
    for cloud in (periodic_union(6, 33), enumerate_sigma(9)):
        got = b"".join(cli_io._CLOUD_BLOCKS[kind](cloud.sorted(), {"k": "+"}))
        assert got == _reference_blocks(monkeypatch, kind, cloud)


def test_write_cloud_csv_keeps_cloud_order(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    for cloud in (_adversarial(rng, 400, 7), periodic_union(4, 17)):
        path = tmp_path / "c.csv"
        cli_io.write_cloud_csv(cloud, str(path))
        with monkeypatch.context() as mp:
            mp.setattr(cli_io, "_number_fields", _reference_fields)
            want = b"".join(cli_io._csv_blocks(cloud))
        assert path.read_bytes() == want


def _largest_union_points(max_m: int, samples: int) -> int:
    # every pattern solved at its effective period, with no dedup: an upper bound
    return sum((1 << m) * samples * 2 * m for m in range(1, max_m + 1))


def test_sort_key_span_at_the_caps():
    # the union at PERIOD_CAP (one tag per effective period and angle) and the
    # accumulated enumeration at ENUMERATION_CAP (one tag per size) stay far
    # below 2^63 even with every part a distinct modulus
    samples = 257
    points = _largest_union_points(PERIOD_CAP, samples)
    _check_key_span(2 * points, 2 * PERIOD_CAP * samples, points)
    points = sum((1 << n) * (n + 1) for n in range(1, ENUMERATION_CAP + 1))
    _check_key_span(2 * points, ENUMERATION_CAP, points)
    # the bound is exact: span 2^63 passes, one point more is refused
    _check_key_span(0, 1, 1 << 63)
    with pytest.raises(ValueError, match="overflow the sort key"):
        _check_key_span(0, 1, (1 << 63) + 1)
    with pytest.raises(ValueError, match="overflow the sort key"):
        _check_key_span(1 << 32, 3084, 1 << 31)


def test_sorted_checks_its_key_span(monkeypatch):
    seen = []
    monkeypatch.setattr(cloud_module, "_check_key_span", lambda *args: seen.append(args))
    for cloud in _clouds():
        cloud.sorted()
        assert seen.pop() == (cloud.magnitudes()[0].size, len(cloud.table()), len(cloud))


# ------------------------------------------------------------ counted clouds


def _counted(cloud: SpectrumCloud, rng) -> SpectrumCloud:
    counts = rng.integers(1, 4, len(cloud))
    return SpectrumCloud(cloud.values(), cloud.codes(), cloud.table(), counts)


def _counted_clouds():
    rng = np.random.default_rng(30)
    for cloud in _clouds():
        yield _counted(cloud, rng)


def _within(cloud: SpectrumCloud, bound: float = np.inf) -> SpectrumCloud:
    # the entries whose parts lie below bound in modulus, with their counts
    v = cloud.values()
    keep = (np.abs(v.real) < bound) & (np.abs(v.imag) < bound)
    return SpectrumCloud(v[keep], cloud.codes()[keep], cloud.table(), cloud.counts()[keep])


def _same(a: SpectrumCloud, b: SpectrumCloud) -> bool:
    return (_bits(a.values()) == _bits(b.values()) and np.array_equal(a.codes(), b.codes())
            and a.table() == b.table())


def test_counted_sort_equals_the_sort_of_the_expanded_points():
    for cloud in _counted_clouds():
        want = expanded(cloud)
        got = cloud.sorted()
        assert _same(expanded(got), want.sorted())
        assert _same(expanded(got), lexsorted(want))
        assert len(got) == len(cloud) == want.values().size


def test_counted_sort_keeps_signed_zero_ties_in_entry_order():
    # five entries equal by value and tag, differing only in the signs of
    # their zeros: each entry's copies stay together, in cloud order
    parts = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]])
    counts = np.array([2, 1, 3, 2, 1])
    cloud = _cloud(parts, np.zeros(5, dtype=int), 1)
    counted = SpectrumCloud(cloud.values(), cloud.codes(), cloud.table(), counts)
    want = np.repeat(parts, counts, axis=0)
    got = expanded(counted.sorted()).values()
    assert _bits(got) == want.tobytes()
    assert _same(expanded(counted.sorted()), expanded(counted).sorted())


@pytest.mark.parametrize("kind", ["csv", "json", "svg"])
def test_counted_emitted_bytes_equal_the_expanded_cloud(kind):
    for cloud in _counted_clouds():
        if kind == "json":
            cloud = _within(cloud)  # JSON prints finite floats only
        got = b"".join(cli_io._CLOUD_BLOCKS[kind](cloud.sorted(), {"k": "+"}))
        want = b"".join(cli_io._CLOUD_BLOCKS[kind](expanded(cloud).sorted(), {"k": "+"}))
        assert got == want


def test_counted_write_cloud_csv_and_snapped_equal_the_expanded_cloud(tmp_path):
    path = tmp_path / "c.csv"
    for cloud in _counted_clouds():
        cli_io.write_cloud_csv(cloud, str(path))
        got = path.read_bytes()
        cli_io.write_cloud_csv(expanded(cloud), str(path))
        assert got == path.read_bytes()
        # snapping keys cells by int64: the pool's 1e300, +-inf and nan are
        # refused, named by the first such point in sorted order
        v = cloud.sorted().values()
        far = ~((np.abs(v.real) < 1e12) & (np.abs(v.imag) < 1e12))
        if far.any():
            for c in (cloud, expanded(cloud)):
                with pytest.raises(ValueError, match=re.escape(f"not {v[far.argmax()]}")):
                    c.snapped()
        snapped = _within(cloud, 1e6).snapped()
        assert np.array_equal(snapped.counts(), np.ones(snapped.values().size))
        assert _same(snapped, expanded(_within(cloud, 1e6)).snapped())
    # the int64 cells end just below 2^63 SNAP_CELL, about 9.22e12
    assert len(SpectrumCloud.from_values([9.2e12, -9.2e12j, -9.2e12], "t").snapped()) == 3
    for part in (9.3e12, -1e300, np.inf, np.nan):
        with pytest.raises(ValueError, match="below 9.2e12"):
            SpectrumCloud.from_values([part, 1j * part], "t").snapped()


def test_merged_and_take_keep_counts_aligned():
    rng = np.random.default_rng(31)
    plain = _adversarial(rng, 50, 3)
    a, b = (_counted(_adversarial(rng, size, 4), rng) for size in (40, 70))
    got = a.merged(plain, b)
    assert len(got) == len(a) + len(plain) + len(b)
    assert _same(expanded(got), expanded(a).merged(plain, expanded(b)))
    assert np.array_equal(plain.merged(plain).counts(), np.ones(100))
    idx = rng.permutation(len(a.values()))[:25]
    taken = a._take(idx)
    v, c, k = a.values()[idx], a.codes()[idx], a.counts()[idx]
    assert _same(expanded(taken), SpectrumCloud(np.repeat(v, k), np.repeat(c, k), a.table()))
    assert len(taken) == int(k.sum())


def test_counts_are_compact_and_checked():
    values, codes = np.arange(4, dtype=complex), np.zeros(4, dtype=int)
    cloud = SpectrumCloud(values, codes, ("t",), np.array([1, 2, 1, 2], dtype=np.int64))
    assert cloud.counts().dtype == np.uint8 and not cloud.counts().flags.writeable
    assert len(cloud) == 6 and len(SpectrumCloud(values, codes, ("t",))) == 4
    # all ones is the plain cloud: the same uint8 count array
    for ones in (np.ones(4, dtype=int), None):
        got = SpectrumCloud(values, codes, ("t",), ones).counts()
        assert got.dtype == np.uint8 and not got.flags.writeable and got.tolist() == [1] * 4
    assert SpectrumCloud().counts().dtype == np.uint8 and len(SpectrumCloud()) == 0
    rows = SpectrumCloud.from_values(values.reshape(2, 2), "t", [[1, 1], [3, 3]])
    assert rows.counts().tolist() == [1, 1, 3, 3]
    for bad in ([1, 2, 1], [1, 2, 1, 2, 1], [1, 0, 1, 1], [1, -1, 2, 1], [1.0, 2.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="counts must be"):
            SpectrumCloud(values, codes, ("t",), np.array(bad))
    with pytest.raises(ValueError, match="counts must be"):
        SpectrumCloud.from_values(values, "t", np.zeros(4, dtype=int))


def test_codes_and_table_are_checked():
    # codes index a sorted, distinct table, so code order is tag order and no
    # code wraps round to the last tag or fails only when the cloud is written
    wide = np.array([0, 2**32 + 1])  # int32 would wrap it to 1
    for codes, table, code in (([-1, 0], ("a", "b"), -1), ([0, 3], ("a",), 3),
                               ([0, 0], (), 0), (wide, ("a", "b"), 2**32 + 1)):
        with pytest.raises(ValueError, match=re.escape(f"code {code} is outside [0, {len(table)})")):
            SpectrumCloud([1 + 1j, 2], codes, table)
    for table, pair in ((("b", "a"), "'b' before 'a'"), (("a", "c", "c"), "'c' before 'c'")):
        with pytest.raises(ValueError, match=f"sorted and distinct, not {pair}"):
            SpectrumCloud([1 + 0j, 1 + 0j], [0, 1], table)


def test_every_pipeline_cloud_carries_its_counts():
    plus_minus, sigma = parse_sign_vector("+-"), enumerate_sigma(5)
    pipeline = {
        "finite": finite_eigenvalues(parse_sign_vector("+-+")),
        "enumerate": sigma,
        "periodic": periodic_spectrum(plus_minus, 9),
        "union": periodic_union(3, 9),
        "targets": verify_embedding(plus_minus, 6).targets,
        "snapped": sigma.snapped(),
    }
    for name, cloud in pipeline.items():
        counts = cloud.counts()
        assert counts.dtype.kind == "u" and not counts.flags.writeable, name
        assert counts.size == cloud.values().size and counts.min() >= 1, name
        assert len(cloud) == counts.sum(), name
    assert sigma.counts().max() == 2


def test_enumerate_sigma_counts_each_orbit_half():
    # one entry per solved root and per image, each counting 1 or 2 points
    for n in range(1, 9):
        cloud = enumerate_sigma(n)
        bits, mult = finite._orbits(n)
        assert len(cloud.values()) == 2 * bits.size * (n + 1)
        want, got = np.tile(np.repeat(mult, n + 1), 2), cloud.counts()
        assert np.array_equal(got, want)  # below n = 3 every orbit has count 1
        assert len(cloud) == (n + 1) << n
