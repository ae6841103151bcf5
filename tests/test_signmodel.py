"""Sign patterns, parsing, and gauge normalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signspectra.errors import ParseError
from signspectra.signmodel import (
    SignVector,
    ensure_even_parity,
    gauge_normalize_finite,
    gauge_normalize_periodic,
    parse_sign_vector,
)

from oracles import (
    TridiagSignMatrix,
    all_sign_vectors,
    dense_matrix,
    int_charpoly_oracle,
    match_multisets,
    ones,
    reflected,
)


def test_parse_round_trip():
    k = parse_sign_vector("+-+")
    assert k.signs == (1, -1, 1)
    assert k.to_text() == "+-+"
    assert len(k) == 3
    assert k.signs[1] == -1
    assert k.product() == -1


def test_parse_rejects_empty():
    with pytest.raises(ParseError) as exc:
        parse_sign_vector("")
    assert exc.value.position == 0


@pytest.mark.parametrize("text,pos", [("x", 0), ("+*-", 1), ("--?", 2)])
def test_parse_rejects_foreign_characters(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_sign_vector(text)
    assert exc.value.position == pos


@given(st.text(alphabet="+-", min_size=1, max_size=24))
def test_parse_to_text_round_trip(text):
    assert parse_sign_vector(text).to_text() == text


def test_sign_vector_constructors_and_views():
    k = SignVector(3, 0b110)
    assert k == parse_sign_vector("+--")
    assert list(k) == [1, -1, -1]
    assert reflected(k).signs == (-1, -1, 1)
    assert k.repeated(2).signs == (1, -1, -1, 1, -1, -1)
    assert k.repeated(3).to_text() == "+--+--+--"
    with pytest.raises(ValueError, match="times must be positive"):
        k.repeated(0)
    with pytest.raises(ValueError):
        SignVector(2, 0b100)
    with pytest.raises(ValueError):
        SignVector(0)


@pytest.mark.parametrize(
    "sub,sup,expected",
    [
        ("+", "+", [[0, 1], [1, 0]]),
        ("-", "+", [[0, 1], [-1, 0]]),
        ("++", "++", [[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
    ],
)
def test_dense_matrix_layout(sub, sup, expected):
    t = TridiagSignMatrix(parse_sign_vector(sub), parse_sign_vector(sup))
    assert np.array_equal(dense_matrix(t), np.array(expected, dtype=float))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        TridiagSignMatrix(parse_sign_vector("+"), parse_sign_vector("++"))
    with pytest.raises(ValueError):
        gauge_normalize_finite(parse_sign_vector("+"), parse_sign_vector("++"))


def _conjugated(k: SignVector, l: SignVector) -> np.ndarray:
    # explicit diagonal gauge: d_1 = 1, d_{i+1} = d_i * l_i
    d = np.ones(len(k) + 1)
    for i, s in enumerate(l.signs):
        d[i + 1] = d[i] * s
    a = dense_matrix(TridiagSignMatrix(k, l))
    return np.diag(1.0 / d) @ a @ np.diag(d)


@pytest.mark.parametrize(
    "ktext,ltext,expected",
    [("+-", "-+", "--"), ("+-+", "+++", "+-+"), ("-", "-", "+")],
)
def test_gauge_examples_against_explicit_conjugation(ktext, ltext, expected):
    k, l = parse_sign_vector(ktext), parse_sign_vector(ltext)
    kt = gauge_normalize_finite(k, l)
    assert kt.to_text() == expected
    b = _conjugated(k, l)
    target = dense_matrix(TridiagSignMatrix(kt, ones(len(k))))
    assert np.array_equal(b, target)


def test_gauge_charpoly_exhaustive_small():
    # conjugation preserves the exact characteristic polynomial
    for n in (1, 2, 3, 4):
        for k in all_sign_vectors(n):
            for l in all_sign_vectors(n):
                kt = gauge_normalize_finite(k, l)
                pa = int_charpoly_oracle(dense_matrix(TridiagSignMatrix(k, l)).astype(int))
                pb = int_charpoly_oracle(
                    dense_matrix(TridiagSignMatrix(kt, ones(n))).astype(int)
                )
                assert pa.coeffs == pb.coeffs


@pytest.mark.parametrize("n", range(5, 13))
def test_gauge_charpoly_sampled_larger(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(10):
        k = SignVector(n, int(rng.integers(0, 1 << n)))
        l = SignVector(n, int(rng.integers(0, 1 << n)))
        kt = gauge_normalize_finite(k, l)
        pa = int_charpoly_oracle(
            dense_matrix(TridiagSignMatrix(k, l)).astype(int), max_size=n + 1
        )
        pb = int_charpoly_oracle(
            dense_matrix(TridiagSignMatrix(kt, ones(n))).astype(int), max_size=n + 1
        )
        assert pa.coeffs == pb.coeffs


@given(st.integers(min_value=1, max_value=10), st.data())
def test_gauge_identity_and_involution(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    k = SignVector(n, bits)
    assert gauge_normalize_finite(k, ones(n)) == k
    # normalizing an already normalized pattern changes nothing
    lbits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    kt = gauge_normalize_finite(k, SignVector(n, lbits))
    assert gauge_normalize_finite(kt, ones(n)) == kt


def test_periodic_gauge_examples():
    kt = gauge_normalize_periodic(parse_sign_vector("+"), parse_sign_vector("+"))
    assert kt.to_text() == "+"

    kt = gauge_normalize_periodic(parse_sign_vector("++"), parse_sign_vector("--"))
    assert kt.to_text() == "--"

    kt = gauge_normalize_periodic(parse_sign_vector("+"), parse_sign_vector("-"))
    assert kt.to_text() == "--"

    # unequal lengths are refused as given, before any doubling
    with pytest.raises(ValueError, match="k length 1 != l length 2"):
        gauge_normalize_periodic(parse_sign_vector("+"), parse_sign_vector("-+"))


def _general_symbol_eigs(ksigns, lsigns, phis):
    # symbol of the raw (sub = k, super = l) periodic operator; independent
    # reference using the dense eigensolver, no package code involved
    m = len(ksigns)
    a = np.zeros((len(phis), m, m), dtype=complex)
    for i in range(m - 1):
        a[:, i, i + 1] += lsigns[i]
        a[:, i + 1, i] += ksigns[i]
    a[:, 0, m - 1] += ksigns[m - 1] * np.exp(1j * np.asarray(phis))
    a[:, m - 1, 0] += lsigns[m - 1] * np.exp(-1j * np.asarray(phis))
    return np.linalg.eigvals(a).ravel()


def test_periodic_gauge_preserves_sampled_spectrum():
    """Input and output describe one operator.

    The angle grids are matched: when the period doubles, the union of the
    doubled symbol's spectra over N/2 angles covers exactly the same angle
    set as the input over N angles.  Half-integer offsets keep the grid away
    from the angles where symbol branches cross (the eigensolver loses half
    its digits at such defective points; everywhere else it is exact to
    machine precision, so 1e-9 matching is meaningful).
    """
    N = 8
    for m in range(1, 7):
        for k in all_sign_vectors(m):
            for l in all_sign_vectors(m):
                kt = gauge_normalize_periodic(k, l)
                n_out = N if len(kt) == m else N // 2
                got_in = _general_symbol_eigs(
                    k.signs, l.signs, 2 * np.pi * (np.arange(N) + 0.5) / N
                )
                got_out = _general_symbol_eigs(
                    kt.signs,
                    ones(len(kt)).signs,
                    2 * np.pi * (np.arange(n_out) + 0.5) / n_out,
                )
                assert match_multisets(got_in, got_out, 1e-9), (
                    k.to_text(),
                    l.to_text(),
                )


@pytest.mark.parametrize(
    "text,expected", [("+--", "+--"), ("-", "--"), ("+", "+")]
)
def test_ensure_even_parity_examples(text, expected):
    assert ensure_even_parity(parse_sign_vector(text)).to_text() == expected


def test_ensure_even_parity_exhaustive():
    for m in range(1, 9):
        for k in all_sign_vectors(m):
            out = ensure_even_parity(k)
            assert out.product() == 1
            assert len(out) in (m, 2 * m)
