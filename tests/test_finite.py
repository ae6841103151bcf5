"""Finite tridiagonal spectra: the continuant charpoly and the exhaustive
size-n enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from signspectra.cloud import SpectrumCloud
from signspectra.errors import CapExceededError
from signspectra.finite import (
    COEFF_SIZE_CAP,
    _reversal_classes,
    charpoly_finite,
    enumerate_sigma,
    finite_eigenvalues,
)
from signspectra.polyroot import roots_many
from signspectra.signmodel import SignVector, parse_sign_vector

from oracles import (
    TridiagSignMatrix,
    _continuant,
    all_sign_vectors,
    dense_matrix,
    int_charpoly_oracle,
    match_multisets,
    ones,
    reflected,
)


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("+", (-1, 0, 1)),
        ("-", (1, 0, 1)),
        ("++", (0, 2, 0, -1)),
    ],
)
def test_charpoly_examples(text, coeffs):
    assert tuple(charpoly_finite(parse_sign_vector(text))) == coeffs


def test_charpoly_against_dense_oracle_exhaustive():
    # independent route: build the dense matrix and run division-free
    # Berkowitz; det(A - xI) = (-1)^(n+1) det(xI - A)
    for n in range(1, 8):
        for k in all_sign_vectors(n):
            a = dense_matrix(TridiagSignMatrix(k, ones(n))).astype(int)
            want = int_charpoly_oracle(a).scaled((-1) ** (n + 1))
            assert tuple(charpoly_finite(k)) == want.coeffs


def test_batched_charpoly_is_exact_at_the_cap():
    # all minus signs give the largest coefficients: their moduli sum to
    # Fib(66) = 27,777,890,035,288 < 2^53, so int64 and float64 are exact
    k = SignVector(COEFF_SIZE_CAP, (1 << COEFF_SIZE_CAP) - 1)
    want = _continuant(k.signs, COEFF_SIZE_CAP + 1).coeffs
    got = charpoly_finite(k)
    assert got.dtype == np.int64 and tuple(got) == want
    assert sum(abs(c) for c in want) == 27_777_890_035_288
    assert tuple(got.astype(float).astype(np.int64)) == want


def test_batched_charpoly_matches_each_pattern():
    rng = np.random.default_rng(5)
    for n in (1, 7, 30, COEFF_SIZE_CAP):
        signs = rng.choice([-1, 1], size=(3, 4, n))
        got = charpoly_finite(signs)
        assert got.shape == (3, 4, n + 2)
        for row, s in zip(got.reshape(-1, n + 2), signs.reshape(-1, n)):
            assert tuple(row) == _continuant(tuple(s.tolist()), n + 1).coeffs


def test_reversal_classes_match_the_reflection_loop():
    for n in range(1, 13):
        masks, mult = [], []
        for b in range(1 << n):
            rev = reflected(SignVector(n, b)).bits
            if rev >= b:
                masks.append(b)
                mult.append(1 if rev == b else 2)
        got_masks, got_mult = _reversal_classes(n)
        assert got_masks.tolist() == masks
        assert got_mult.tolist() == mult
        assert got_mult.sum() == 1 << n


def test_charpoly_size_cap():
    # past the cap the coefficients leave int64 and float64; the charpoly
    # stays exact over Python ints, and finite spectra refuse the pattern
    rng = np.random.default_rng(65)
    words = [SignVector(n, (1 << n) - 1) for n in (COEFF_SIZE_CAP + 1, 100)]
    words.append(SignVector(80, int(rng.integers(0, 1 << 62)) << 18))
    for k in words:
        got = charpoly_finite(k)
        assert got.dtype == object
        assert tuple(got) == _continuant(k.signs, len(k) + 1).coeffs
    big = charpoly_finite(words[1])
    assert max(abs(c) for c in big) > 2**63
    with pytest.raises(CapExceededError):
        finite_eigenvalues(SignVector(COEFF_SIZE_CAP + 1, 0))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("+", [1, -1]),
        ("-", [1j, -1j]),
        ("++", [0, math.sqrt(2), -math.sqrt(2)]),
    ],
)
def test_finite_eigenvalues_known_spectra(text, expected):
    cloud = finite_eigenvalues(parse_sign_vector(text))
    assert match_multisets(cloud.values(), expected, 1e-10)
    assert set(cloud.tags()) == {f"fin:n={len(text)}"}


def test_enumerate_size_one():
    cloud = enumerate_sigma(1)
    assert match_multisets(cloud.values(), [1, -1, 1j, -1j], 1e-10)
    assert set(cloud.tags()) == {"fin:n=1"}


def test_enumerate_counts_and_membership():
    for n in range(1, 7):
        cloud = enumerate_sigma(n)
        assert len(cloud) == (n + 1) * (1 << n)
    v = enumerate_sigma(2).values()
    for target in (0, math.sqrt(2), -math.sqrt(2)):
        assert np.abs(v - target).min() <= 1e-10


def test_enumerate_rejects_bad_n_and_cap():
    with pytest.raises(ValueError):
        enumerate_sigma(0)
    with pytest.raises(CapExceededError):
        enumerate_sigma(5, cap=4)
    assert len(enumerate_sigma(5, cap=5)) == 6 * 32


def test_enumerate_matches_solving_every_pattern():
    # enumeration solves one pattern per reversal class; solving all 2^n
    # patterns one by one must give the same cloud bit for bit once sorted
    for n in range(1, 9):
        rows = [
            charpoly_finite(k).astype(complex)
            for k in all_sign_vectors(n)
        ]
        solved = np.concatenate(roots_many(rows))
        naive = SpectrumCloud.from_values(solved, f"fin:n={n}").sorted()
        got = enumerate_sigma(n).sorted()
        assert got.values().tobytes() == naive.values().tobytes()
        assert got.tags() == naive.tags()


def test_enumerate_is_in_class_order():
    # ascending representative masks, each root row repeated by its class
    # size: n = 2 has classes ++ (1), -+ and +- (2), -- (1)
    got = enumerate_sigma(2).values()
    rows = [finite_eigenvalues(parse_sign_vector(t)).values() for t in ("++", "-+", "--")]
    want = np.concatenate([rows[0], rows[1], rows[1], rows[2]])
    assert got.tobytes() == want.tobytes()
