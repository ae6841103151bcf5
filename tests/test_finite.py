"""Finite tridiagonal spectra: continuant charpoly, point evaluation, and
the exhaustive size-n enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from signspectra.cloud import SpectrumCloud
from signspectra.errors import CapExceededError
from signspectra.finite import (
    COEFF_SIZE_CAP,
    charpoly_eval_many,
    charpoly_finite,
    enumerate_sigma,
    finite_eigenvalues,
)
from signspectra.polyroot import roots_many
from signspectra.signmodel import SignVector, ones, parse_sign_vector

from oracles import (
    TridiagSignMatrix,
    all_sign_vectors,
    dense_matrix,
    evaluate,
    int_charpoly_oracle,
    match_multisets,
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
    assert charpoly_finite(parse_sign_vector(text)).coeffs == coeffs


def test_charpoly_against_dense_oracle_exhaustive():
    # independent route: build the dense matrix and run division-free
    # Berkowitz; det(A - xI) = (-1)^(n+1) det(xI - A)
    for n in range(1, 8):
        for k in all_sign_vectors(n):
            a = dense_matrix(TridiagSignMatrix(k, ones(n))).astype(int)
            want = int_charpoly_oracle(a).scaled((-1) ** (n + 1))
            assert charpoly_finite(k).coeffs == want.coeffs


def test_charpoly_size_cap():
    with pytest.raises(CapExceededError):
        charpoly_finite(SignVector(COEFF_SIZE_CAP + 1, 0))
    # evaluation has no such cap
    (val,), (scale,) = charpoly_eval_many(SignVector(COEFF_SIZE_CAP + 1, 0), [0.5])
    assert scale > 0 and np.isfinite(abs(val))


def test_eval_at_exact_small_case():
    (val,), (scale,) = charpoly_eval_many(parse_sign_vector("+"), [0.0])
    assert (val, scale) == (-1.0, 1.0)


def test_eval_at_detects_known_root():
    (val,), (scale,) = charpoly_eval_many(parse_sign_vector("++"), [math.sqrt(2)])
    assert abs(val) <= 1e-12 * scale


def test_eval_many_matches_coefficient_route():
    rng = np.random.default_rng(77)
    for n in (5, 17, 32):
        k = SignVector(n, int(rng.integers(0, 1 << n)))
        poly = charpoly_finite(k)
        lams = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
        vals, scales = charpoly_eval_many(k, lams)
        assert vals.shape == scales.shape == (100,)
        for z, d, s in zip(lams, vals, scales):
            pv, _ = evaluate(poly, complex(z))
            assert abs(d - pv) <= 1e-10 * s


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
    # patterns one by one must give the same sorted cloud bit for bit
    for n in range(1, 9):
        rows = [
            np.asarray(charpoly_finite(k).coeffs, dtype=complex)
            for k in all_sign_vectors(n)
        ]
        solved = np.concatenate(roots_many(rows))
        naive = SpectrumCloud.from_values(solved, f"fin:n={n}").sorted()
        got = enumerate_sigma(n)
        assert got.values().tobytes() == naive.values().tobytes()
        assert got.tags() == naive.tags()


def test_enumerate_threading_is_deterministic():
    a = enumerate_sigma(12, threads=1)
    b = enumerate_sigma(12, threads=3)
    assert np.array_equal(a.values(), b.values())
    assert a.tags() == b.tags()
