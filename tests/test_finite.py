"""Finite tridiagonal spectra: the continuant charpoly and the exhaustive
size-n enumeration."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from signspectra import cli_io, finite, polyroot
from signspectra.errors import CapExceededError, ConvergenceError
from signspectra.finite import (
    COEFF_SIZE_CAP,
    ENUMERATION_CAP,
    _orbits,
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
    tags,
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


def _negated(k: SignVector) -> SignVector:
    return SignVector(k.n, k.bits ^ ((1 << k.n) - 1))


def test_orbits_match_a_brute_force_set_loop():
    # one representative (the smallest mask) per {k, rev k, -k, rev -k}; its
    # root row and the row's image each stand for half of the orbit
    for n in range(1, 13):
        masks, mult, kinds = [], [], set()
        for b in range(1 << n):
            k = SignVector(n, b)
            own = {b, reflected(k).bits}
            image = {_negated(k).bits, reflected(_negated(k)).bits}
            orbit = own | image
            if b == min(orbit):
                masks.append(b)
                mult.append(len(orbit) // 2)
                # generic (2 + 2), palindromic (1 + 1), rev k = -k (the orbit {k, -k})
                kinds.add((len(own), len(image), own == image))
        got_masks, got_mult = _orbits(n)
        assert got_masks.tolist() == masks
        assert got_mult.tolist() == mult
        assert 2 * got_mult.sum() == 1 << n
        want_kinds = {(1, 1, False)}
        if n >= 3:
            want_kinds.add((2, 2, False))
        if n % 2 == 0:
            want_kinds.add((2, 2, True))
        assert kinds == want_kinds


def test_orbit_counts():
    # Burnside over {1, rev, neg, rev neg}: (2^n + 2 * 2^(n/2)) / 4 at even n,
    # since 2^(n/2) patterns are palindromes, 2^(n/2) have rev k = -k and
    # none equals its negation
    assert len(_orbits(14)[0]) == 4160
    assert len(_orbits(16)[0]) == 16512


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_negation_rotates_the_charpoly_exactly():
    # D_{-k}(x) = i^{-N} D_k(i x), N = n + 1, in exact Gaussian integers: the
    # coefficient of x^j is c_j i^(j - N), which must be the real integer
    # coefficient of the negated pattern (int64 up to 64 signs, Python ints
    # past it)
    rng = np.random.default_rng(16)
    sizes = [n for n in range(1, 15) for _ in range(6)] + [64, 64, 65, 65]
    for n in sizes:
        k = SignVector(n, sum(int(b) << i for i, b in enumerate(rng.integers(0, 2, n))))
        c = charpoly_finite(k).tolist()
        rotated = [tuple(cj * w for w in _I_POWERS[(j - n - 1) % 4]) for j, cj in enumerate(c)]
        assert all(im == 0 for _, im in rotated), k
        assert charpoly_finite(_negated(k)).tolist() == [re for re, _ in rotated], k


def _times_i(z: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)
    w.real = -z.imag
    w.imag = z.real
    return w


def _multiset(z: np.ndarray) -> np.ndarray:
    return z[np.lexsort((z.imag, z.real))]


def _assert_invariant_under_rotation_by_i(sizes):
    # as a multiset of floats, compared by value (so -0 equals 0); the
    # density scan folds its queries by this symmetry up to ENUMERATION_CAP
    for n in sizes:
        v = enumerate_sigma(n).values()
        assert (_multiset(_times_i(v)) == _multiset(v)).all(), n


def test_sigma_is_exactly_invariant_under_rotation_by_i():
    _assert_invariant_under_rotation_by_i(range(1, 13))


@pytest.mark.slow
def test_sigma_is_exactly_invariant_under_rotation_by_i_up_to_the_cap():
    _assert_invariant_under_rotation_by_i(range(13, ENUMERATION_CAP + 1))


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
    assert set(tags(cloud)) == {f"fin:n={len(text)}"}


def test_enumerate_size_one():
    cloud = enumerate_sigma(1)
    assert match_multisets(cloud.values(), [1, -1, 1j, -1j], 1e-10)
    assert set(tags(cloud)) == {"fin:n=1"}


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
    # each orbit representative is solved as it would be alone, each image
    # is bitwise i times its row, and the cloud stays within 1e-12 max(1, |z|)
    # in set distance of solving all 2^n patterns one by one
    for n in range(1, 9):
        bits, mult = _orbits(n)
        alone = np.concatenate([
            roots_many(charpoly_finite(SignVector(n, int(b)))[None]) for b in bits
        ])
        got = enumerate_sigma(n)
        rows = got.values().reshape(2, 1 << (n - 1), n + 1)
        assert rows[0].tobytes() == np.repeat(alone, mult, axis=0).tobytes()
        assert rows[1].tobytes() == _times_i(rows[0]).tobytes()
        every = np.concatenate([
            roots_many(charpoly_finite(k)[None])[0] for k in all_sign_vectors(n)
        ])
        dist = np.abs(got.values()[:, None] - every[None, :])
        assert (dist.min(axis=1) <= 1e-12 * np.maximum(1.0, np.abs(got.values()))).all()
        assert (dist.min(axis=0) <= 1e-12 * np.maximum(1.0, np.abs(every))).all()
        assert set(tags(got)) == {f"fin:n={n}"}


def test_enumerate_is_in_orbit_order():
    # n = 3 has orbits +++ (palindrome, count 1), -++ (count 2) and +-+
    # (palindrome, count 1): the rows in that order, then their images
    got = enumerate_sigma(3).values()
    rows = [finite_eigenvalues(parse_sign_vector(t)).values() for t in ("+++", "-++", "+-+")]
    first = np.concatenate([rows[0], rows[1], rows[1], rows[2]])
    want = np.concatenate([first, _times_i(first)])
    assert got.tobytes() == want.tobytes()


def test_enumerate_error_names_stage_size_and_pattern(monkeypatch):
    monkeypatch.setattr(finite, "roots_many", functools.partial(polyroot.roots_many, max_iter=1))
    with pytest.raises(ConvergenceError) as exc:
        enumerate_sigma(6)
    msg = str(exc.value)
    word = SignVector(6, int(_orbits(6)[0][exc.value.row])).to_text()
    assert msg.startswith(f"enumerate n = 6, pattern {word}: degree-")
    assert "within 1 iterations" in msg and exc.value.worst_residual > 0
    # the named pattern fails on its own too
    with pytest.raises(ConvergenceError):
        polyroot.roots_many(charpoly_finite(parse_sign_vector(word))[None], max_iter=1)


def test_finite_error_names_stage_size_and_pattern(monkeypatch, capsys):
    monkeypatch.setattr(finite, "roots_many", functools.partial(polyroot.roots_many, max_iter=1))
    k = parse_sign_vector("+-+-++-+--+")
    with pytest.raises(ConvergenceError) as raw:
        polyroot.roots_many(charpoly_finite(k)[None], max_iter=1)
    with pytest.raises(ConvergenceError) as exc:
        finite_eigenvalues(k)
    # the row and the residual pass through; the message names the rest
    assert str(exc.value) == f"finite spectrum, n = 11, pattern +-+-++-+--+: {raw.value}"
    assert exc.value.row == raw.value.row and exc.value.worst_residual == raw.value.worst_residual
    assert cli_io.main(["spectrum", "--mode", "finite", "--k=+-+-++-+--+"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {exc.value}\n"
