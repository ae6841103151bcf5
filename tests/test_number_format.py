"""The CSV number formatter `cli_io._format_17g` against Python's ``'%.17g' %``.

The formatter computes the digits over arrays and must return, byte for
byte, the NUL-padded table that `cli_io._lines_table` builds from the text
Python's ``%`` prints, whatever the float: random bit patterns, cloud
magnitudes, and the edge classes of the method (powers of ten, the '%g'
switch points, exact ties, subnormals, zero, non-finite values).
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra import cli_io
from signspectra.cloud import SpectrumCloud
from signspectra.density import periodic_union
from signspectra.finite import enumerate_sigma


def _percent_table(values: np.ndarray) -> np.ndarray:
    return cli_io._lines_table(("%.17g\n" * values.size) % tuple(values.tolist()))


def _assert_prints_as_percent(values) -> None:
    values = np.asarray(values, dtype=float)
    got, want = cli_io._format_17g(values), _percent_table(values)
    if not np.array_equal(got, want):
        rows = np.flatnonzero((got[:, : want.shape[1]] != want[:, : got.shape[1]]).any(axis=1))
        i = rows[0] if rows.size else 0
        raise AssertionError(
            f"{got.shape} vs {want.shape}; {values[i]!r}: {bytes(got[i])!r} vs {bytes(want[i])!r}"
        )


def _neighbours(x: np.ndarray) -> np.ndarray:
    return np.concatenate([np.nextafter(x, 0), x, np.nextafter(x, np.inf)])


def _exact_ties(rng) -> np.ndarray:
    # x * 10**(16 - X) ends in exactly 1/2 where x = m * 2**(X - 17), m odd, with
    # 10**X <= x < 10**(X + 1): such x exist for -8 <= X <= 15
    ties = [1 + np.arange(1, 2**12, 2) * 2.0**-17]
    for X in range(-8, 16):
        low = int(np.ceil(10.0**X * 2.0 ** (17 - X)))
        high = min(int(10.0 ** (X + 1) * 2.0 ** (17 - X)), 1 << 53)
        m = rng.integers(low, high, size=256) | 1
        ties.append(np.ldexp(m.astype(float), X - 17))
    return np.concatenate(ties)


def test_exact_ties_are_ties():
    # each has exactly 18 significant digits, the last a 5: '%' rounds it half to even
    for x in _exact_ties(np.random.default_rng(3)).tolist():
        X = len(str(int(Fraction(x) * 10**8))) - 9
        assert (Fraction(x) * Fraction(10) ** (16 - X)).denominator == 2, x


def test_prints_as_percent_on_the_edge_classes():
    rng = np.random.default_rng(7)
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    edges = [
        [0.0, -0.0, np.inf, -np.inf, np.nan, np.finfo(float).max, -np.finfo(float).max],
        [5e-324, 2.2250738585072009e-308, np.finfo(float).tiny],
        rng.integers(1, 1 << 52, size=2000).view(float),  # subnormals
        _neighbours(powers),
        _neighbours(np.array([1e-4, 1e-5, 1e16, 1e17, 1e-270])),  # '%g' and fast-path edges
        _exact_ties(rng),
    ]
    _assert_prints_as_percent(np.concatenate([np.ravel(e) for e in edges]))


@pytest.mark.slow
def test_prints_as_percent_on_random_bit_patterns():
    bits = np.random.default_rng(20261021).integers(0, 1 << 64, size=10**6, dtype=np.uint64)
    values = bits.view(float)
    _assert_prints_as_percent(values[np.isfinite(values)])


def test_prints_as_percent_on_the_fast_range():
    # uniform bit patterns leave most of [1e-270, 1e16) to few exponents: cover it densely
    rng = np.random.default_rng(11)
    values = 10.0 ** rng.uniform(-271, 17, size=200_000)
    _assert_prints_as_percent(np.concatenate([values, rng.random(50_000) * 2]))


def test_prints_as_percent_on_cloud_magnitudes():
    sigma = SpectrumCloud().merged(*(enumerate_sigma(n) for n in range(1, 13)))
    for cloud in (sigma, periodic_union(6, 33)):
        mags, _ = cloud.magnitudes()
        _assert_prints_as_percent(mags)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_prints_as_percent_on_any_floats(values):
    _assert_prints_as_percent(np.array(values, dtype=float))


def test_formats_in_bounded_memory():
    # the digits are computed a chunk at a time: beyond the 24-byte rows of the
    # table it returns, the formatter holds a few MiB for a million magnitudes
    mags = np.sort(np.random.default_rng(5).random(10**6) * 2)
    tracemalloc.start()
    try:
        table = cli_io._format_17g(mags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape[0] == mags.size
    assert peak - 24 * mags.size < 4 << 20, f"peak {peak / 2**20:.1f} MiB"
