"""Polynomial containers, evaluation, and the simultaneous root iteration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signspectra.errors import CapExceededError, ConvergenceError
from signspectra.finite import _class_representatives, charpoly_finite
from signspectra.polyroot import IntPolynomial, roots, roots_many
from signspectra.signmodel import SignVector, parse_sign_vector
from signspectra.symbol import symbol_poly

from oracles import (
    ComplexPolynomial,
    evaluate,
    from_roots,
    int_charpoly_oracle,
    match_multisets,
)


@pytest.mark.parametrize(
    "coeffs,z,value,scale",
    [
        ((-2, 0, 1), 0, -2, 2),
        ((0, 1), 3 + 4j, 3 + 4j, 5),
        ((1, 0, 1), 1j, 0, 2),
    ],
)
def test_evaluate_examples(coeffs, z, value, scale):
    v, s = evaluate(ComplexPolynomial(coeffs), z)
    assert v == complex(value)
    assert s == pytest.approx(scale, abs=1e-15)


def test_polynomial_trimming_and_degree():
    p = ComplexPolynomial((1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (1 + 0j, 2 + 0j)
    with pytest.raises(ValueError):
        ComplexPolynomial(())
    q = IntPolynomial((0, 0, 0))
    assert q.degree == 0 and q.coeffs == (0,)


def test_int_polynomial_exact_arithmetic():
    a = IntPolynomial((1, 2))
    b = IntPolynomial((-1, 0, 3))
    assert (a + b).coeffs == (0, 2, 3)
    assert (a - b).coeffs == (2, 2, -3)
    assert (a * b).coeffs == (-1, -2, 3, 6)
    assert a.times_x().coeffs == (0, 1, 2)
    assert b.eval_int(2) == 11
    big = IntPolynomial((1 << 100, 1))
    assert (big * big).coeffs[0] == 1 << 200


def test_roots_known_quadratic():
    got = roots(ComplexPolynomial((1, 0, 1)))
    assert match_multisets(got, [1j, -1j], 1e-10)


def test_roots_expanded_cubic():
    # (x-1)(x-2)(x-3) expanded by hand
    got = roots(ComplexPolynomial((-6, 11, -6, 1)))
    assert match_multisets(got, [1, 2, 3], 1e-8)


def test_roots_sign_matrix_cubic():
    got = roots(IntPolynomial((0, -2, 0, 1)))
    assert match_multisets(got, [0, np.sqrt(2), -np.sqrt(2)], 1e-8)


def test_roots_degenerate_paths():
    assert roots(ComplexPolynomial((-6, 3)))[0] == 2
    got = roots(ComplexPolynomial((0, 0, 0, 0, 0, 1)))
    assert np.array_equal(got, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        roots(ComplexPolynomial((5,)))


def test_roots_many_input_checks():
    with pytest.raises(ValueError):
        roots_many([np.array([1.0, 0.0])])  # zero leading coefficient
    with pytest.raises(ValueError):
        roots_many([np.array([[1.0, 1.0]])])


def test_roots_many_rows_do_not_depend_on_the_batch():
    # embed solves its allowed and excluded targets in one batch, and rows of
    # one degree stop iterating at different steps; each row's roots must be
    # the very floats it gets when solved alone
    rng = np.random.default_rng(7)
    wilkinson = np.poly(np.arange(1.0, 9.0))[::-1]  # coefficients up to 40320
    rows = [wilkinson, np.r_[-2.0, np.zeros(7), 1.0], np.array([-6.0, 3.0])]
    for deg in (2, 3, 5, 8, 8, 12):
        rows.append(np.r_[rng.integers(-3, 4, deg), 1].astype(complex))
        rows.append(np.r_[0, 0, rng.integers(-3, 4, deg - 1), 1].astype(complex))
    for target in (-2.0, -0.5, 1.0, 1.9):
        rows.append(np.array([-target, 1, 0, -3, 0, 1], dtype=complex))  # p = x^5 - 3x^3 + x
    together = roots_many(rows)
    for row, got in zip(rows, together):
        assert got.tobytes() == roots_many([row])[0].tobytes(), row


def test_nonconvergence_carries_worst_residual():
    with pytest.raises(ConvergenceError) as exc:
        roots(ComplexPolynomial((1, 0, 1)), max_iter=0)
    assert exc.value.worst_residual == np.inf
    with pytest.raises(ConvergenceError) as exc:
        roots(ComplexPolynomial((1.1, 0.3, 1)), tol=1e-30)
    assert 0 < exc.value.worst_residual < 1e-12


def test_nonconvergence_names_the_group_and_the_row():
    rows = [np.array([-6.0, 3.0]), np.array([1.0, 0, 1]), np.array([1.0, 0, 0, 1]),
            np.array([2.0, 0, 1])]
    with pytest.raises(ConvergenceError) as exc:
        roots_many(rows, max_iter=0)
    assert exc.value.row == 1
    assert "degree-2 group of 2 rows, input row 1:" in str(exc.value)
    # x^2 - 1 reaches residual 0 at +-1 and converges even at tol 1e-30;
    # x^2 - 2 cannot, and the error names it rather than the first row
    with pytest.raises(ConvergenceError) as exc:
        roots_many([np.array([-1.0, 0, 1]), np.array([-2.0, 0, 1])], tol=1e-30)
    assert exc.value.row == 1
    assert "degree-2 group of 2 rows, input row 1:" in str(exc.value)


def _all_charpolys(max_n):
    # reversed patterns share one charpoly, so the class representatives give them all
    return [charpoly_finite(k) for n in range(1, max_n + 1)
            for k, _ in _class_representatives(n)]


def _positive(coeffs):
    coeffs = tuple(int(c) for c in coeffs)
    return coeffs if coeffs[-1] > 0 else tuple(-c for c in coeffs)


def test_int_polynomial_division_gcd_and_squarefree_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def sym(p):
        return sympy.Poly(list(reversed(p.coeffs)), x, domain="ZZ")

    def ours(poly):
        return tuple(reversed(poly.all_coeffs()))

    polys = _all_charpolys(10)
    for i, d in enumerate(polys):
        dp = d.derivative()
        g = d.gcd(dp)
        assert g.coeffs == _positive(ours(sympy.gcd(sym(d), sym(dp)))), d
        q, r = divmod(d, g)
        assert r.is_zero() and (q * g).coeffs == d.coeffs
        # charpolys have leading coefficient +-1, so any of them divides over Z
        b = polys[(7 * i) % len(polys)]
        q, r = divmod(d, b)
        sq, sr = sympy.div(sym(d), sym(b))
        assert q.coeffs == ours(sq) and r.coeffs == ours(sr)
        # the derivative's leading coefficient is +-(n + 1): a true pseudo-division
        q, r = b.pseudo_divmod(dp)
        sq, sr = sympy.pdiv(sym(b), sym(dp))
        assert q.coeffs == ours(sq) and r.coeffs == ours(sr)
        _, expect = sympy.sqf_list(sym(d))
        got = {(f.coeffs, m) for f, m in d.squarefree()}
        assert got == {(_positive(ours(f)), m) for f, m in expect}, d
    with pytest.raises(ValueError):
        divmod(IntPolynomial((1, 0, 1)), IntPolynomial((1, 2)))
    with pytest.raises(ZeroDivisionError):
        divmod(IntPolynomial((1, 1)), IntPolynomial((0,)))
    assert IntPolynomial((6, 12)).gcd(IntPolynomial((0, 9))) == IntPolynomial((3,))


def _reference_roots(coeffs):
    """Roots of an integer polynomial at 40 digits, repeated by multiplicity.

    mpmath alone resolves a j-fold root only to about 40/j digits, so each
    squarefree factor from sympy is solved on its own.
    """
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    x = sympy.Symbol("x")
    _, factors = sympy.sqf_list(sympy.Poly(list(reversed(coeffs)), x))
    out = []
    with mpmath.workdps(40):
        for f, m in factors:
            found = mpmath.polyroots([int(a) for a in f.all_coeffs()], maxsteps=200,
                                     extraprec=100)
            out += [complex(r) for r in found] * m
    return out, max((m for _, m in factors), default=1)


def test_repeated_root_is_returned_exactly():
    # D = -x^3 (x^2 + 1)^4 for the pattern below: at a 4-fold root plain
    # Aberth stops about tol^(1/4) away; the squarefree split puts each of
    # the four copies of +-i on the rounding floor
    d = charpoly_finite(parse_sign_vector("-+---+--+-"))
    expected, most = _reference_roots(d.coeffs)
    assert most == 4
    assert match_multisets(roots(d), expected, 1e-12)


def test_forward_error_against_mpmath():
    # every finite charpoly up to n = 6, seeded n = 12 patterns, and symbol
    # rows at the band-edge targets +-2, where double roots sit
    polys = _all_charpolys(6)
    rng = np.random.default_rng(12)
    polys += [charpoly_finite(SignVector(12, int(b))) for b in rng.integers(0, 1 << 12, 12)]
    for word in ("+-", "+--+", "++-+", "+-+--+", "-+++-+++"):
        p = symbol_poly(parse_sign_vector(word)).p
        polys += [p - IntPolynomial((t,)) for t in (-2, 2)]
    repeated = 0
    for p in polys:
        expected, most = _reference_roots(p.coeffs)
        repeated += most > 1
        got = roots(p)
        scale = np.maximum(1.0, np.abs(np.asarray(expected)))
        assert match_multisets(got, expected, 1e-12 * scale.max()), p
    assert repeated >= 10


def test_from_roots_small():
    p = from_roots([1, 1j, -1j])
    assert np.allclose(p.coeffs, (-1, 1, -1, 1), atol=1e-15)


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ([[0, 1], [1, 0]], (-1, 0, 1)),
        ([[0, 1], [-1, 0]], (1, 0, 1)),
        ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], (0, -2, 0, 1)),
    ],
)
def test_int_charpoly_oracle_examples(matrix, expected):
    assert int_charpoly_oracle(matrix).coeffs == expected


def test_int_charpoly_oracle_refusals():
    with pytest.raises(CapExceededError):
        int_charpoly_oracle(np.zeros((13, 13), dtype=int))
    # explicit bound raise is allowed
    p = int_charpoly_oracle(np.zeros((13, 13), dtype=int), max_size=13)
    assert p.degree == 13
    with pytest.raises(ValueError):
        int_charpoly_oracle(np.array([[0.5]]))
    with pytest.raises(ValueError):
        int_charpoly_oracle(np.zeros((2, 3)))


def test_match_multisets_behavior():
    assert match_multisets([1, 1j], [1j, 1 + 1e-9], 1e-8)
    assert not match_multisets([1, 1j], [1j, 1.1], 1e-8)
    assert not match_multisets([1], [1, 1], 1e-8)
    assert match_multisets([2, 2, 3], [3, 2, 2], 0.0)


@st.composite
def _real_monic(draw):
    # exact zeros stay allowed (they exercise the peel path), but tiny
    # nonzero coefficients are excluded: they push roots hundreds of orders
    # of magnitude below one, where no fixed iteration budget converges
    coeff = st.floats(-1, 1, allow_nan=False, allow_infinity=False).filter(
        lambda x: x == 0.0 or abs(x) >= 1e-3
    )
    low = draw(st.lists(coeff, min_size=2, max_size=12))
    return ComplexPolynomial(tuple(low) + (1.0,))


def _well_separated(vals, gap=1e-4):
    # multiple roots come back as clusters with ~sqrt(tol) fuzz by design,
    # so the tight tolerances below only apply away from collisions
    d = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(d, np.inf)
    return bool(d.min() > gap)


@given(_real_monic())
@settings(max_examples=60, deadline=None)
def test_real_roots_closed_under_conjugation(p):
    got = roots(p)
    assume(_well_separated(got))
    assert match_multisets(got, np.conj(got), 1e-8)


@given(_real_monic())
@settings(max_examples=60, deadline=None)
def test_reconstruction_round_trip(p):
    got = roots(p)
    assume(_well_separated(got))
    back = from_roots(got)
    assert np.max(np.abs(back.as_array() - p.monic().as_array())) <= 1e-6
