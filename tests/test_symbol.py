"""Symbol matrices, the corner-corrected determinant identity, and sampled
periodic spectra."""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
import pytest

from signspectra import polyroot, symbol
from signspectra.cloud import SNAP_CELL, SpectrumCloud
from signspectra.errors import CapExceededError, ConvergenceError
from signspectra.polyroot import IntPolynomial
from signspectra.signmodel import SignVector, parse_sign_vector
from signspectra.symbol import (
    SAMPLES_CAP,
    periodic_spectrum,
    preimages,
    symbol_poly,
    two_cos_pi,
)

from oracles import (
    all_sign_vectors,
    evaluate,
    match_multisets,
    symbol_array,
    symbol_char_value,
    symbol_char_values,
    tags,
)


def test_two_cos_pi_exact_points():
    assert two_cos_pi(0, 7) == 2.0
    assert two_cos_pi(7, 7) == -2.0
    assert two_cos_pi(1, 2) == 0.0
    assert two_cos_pi(1, 3) == 1.0
    assert two_cos_pi(2, 3) == -1.0
    assert two_cos_pi(14, 7) == 2.0  # full turn
    with pytest.raises(ValueError):
        two_cos_pi(1, 0)


def test_two_cos_pi_matches_cosine_and_mirrors():
    for denom in (5, 8, 840):
        for s in range(2 * denom):
            v = two_cos_pi(s, denom)
            assert v == pytest.approx(2 * math.cos(math.pi * s / denom), abs=1e-14)
            # mirror and shift identities hold bit for bit
            assert v == -two_cos_pi(denom - s, denom)
            assert v == two_cos_pi(s + 2 * denom, denom)


def test_symbol_array_layout_m3():
    a = symbol_array(parse_sign_vector("++-"), 0.0)
    expected = np.array([[0, 1, -1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    assert np.allclose(a, expected, atol=1e-15)
    # exactly 2m nonzero entries of modulus one for m >= 3
    b = symbol_array(parse_sign_vector("+-+-"), 0.7)
    assert np.count_nonzero(b) == 8
    assert np.allclose(np.abs(b[b != 0]), 1.0, atol=1e-15)
    # an array of angles gives the stack of the per-angle arrays
    stack = symbol_array(parse_sign_vector("+-+-"), [0.7, 2.0])
    assert stack.shape == (2, 4, 4)
    assert np.array_equal(stack[0], b)
    assert np.array_equal(stack[1], symbol_array(parse_sign_vector("+-+-"), 2.0))


def test_symbol_array_small_sizes_sum_overlaps():
    a = symbol_array(parse_sign_vector("++"), 0.0)
    assert np.allclose(a, [[0, 2], [2, 0]], atol=1e-15)
    s = symbol_array(parse_sign_vector("+"), math.pi / 2)
    assert abs(s[0, 0]) <= 1e-15
    assert symbol_array(parse_sign_vector("+"), 0.25).shape == (1, 1)


def test_symbol_char_value_examples():
    assert symbol_char_value(parse_sign_vector("++"), 0.0, 0.0) == pytest.approx(-4.0)
    assert symbol_char_value(parse_sign_vector("+"), 0.0, 2.0) == pytest.approx(
        0.0, abs=1e-12
    )
    got = symbol_char_value(parse_sign_vector("+-"), math.pi / 2, 0.0)
    assert got == pytest.approx(2j, abs=1e-12)


def test_symbol_char_values_pairs_up():
    k = parse_sign_vector("+-+")
    phis = np.array([0.1, 2.0])
    lams = np.array([0.3 + 0.1j, -1.0])
    got = symbol_char_values(k, phis, lams)
    want = [
        np.linalg.det(symbol_array(k, p) - z * np.eye(3)) for p, z in zip(phis, lams)
    ]
    assert np.allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError):
        symbol_char_values(k, phis, lams[:1])


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("++", (-2, 0, 1)),
        ("+-", (0, 0, 1)),
        ("+", (0, 1)),
        ("--", (2, 0, 1)),
    ],
)
def test_symbol_poly_examples(text, coeffs):
    p = symbol_poly(parse_sign_vector(text))
    assert p.shape == (len(text) + 1,)
    assert tuple(p.tolist()) == coeffs


def test_symbol_poly_monic_integer_all_small_periods():
    for m in range(1, 9):
        for k in all_sign_vectors(m):
            p = symbol_poly(k)
            assert p.dtype == np.int64
            assert p.shape == (m + 1,)
            assert p[-1] == 1


def test_symbol_poly_stack_is_row_by_row():
    # a stack of patterns of one length gives one row per pattern, equal to
    # building each alone; past 64 signs the rows hold Python ints
    for m in (1, 2, 3, 4, 7, 66, 67, 70):
        words = list(all_sign_vectors(m)) if m < 8 else [
            SignVector(m, b) for b in (0, (1 << m) - 1, 0x5A5A5A5A5A5A5A5A5 % (1 << m))
        ]
        stack = np.array([k.signs for k in words])
        rows = symbol_poly(stack.reshape(1, len(words), m))[0]
        assert rows.shape == (len(words), m + 1)
        assert rows.dtype == (object if m > 65 else np.int64), m
        for k, row in zip(words, rows):
            assert tuple(row.tolist()) == tuple(symbol_poly(k).tolist()), k.to_text()
            assert IntPolynomial(tuple(row)) == _int_transfer_trace(k.signs), k.to_text()


def _transfer_trace(signs, lam):
    # product of the one-step recursion matrices [[lam, -k_j], [1, 0]];
    # its trace gives the same degree-m polynomial as the corner expansion,
    # with no continuant step shared between them
    t = np.eye(2, dtype=complex)
    for s in signs:
        t = np.array([[lam, -s], [1.0, 0.0]], dtype=complex) @ t
    return t[0, 0] + t[1, 1]


def test_symbol_poly_against_transfer_trace():
    rng = np.random.default_rng(42)
    for m in range(1, 7):
        for k in all_sign_vectors(m):
            p = IntPolynomial(tuple(symbol_poly(k)))
            for _ in range(10):
                lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                want = _transfer_trace(k.signs, lam)
                got, _ = evaluate(p, lam)
                assert abs(got - want) <= 1e-9 * (1 + abs(lam)) ** m


def _int_transfer_trace(signs) -> IntPolynomial:
    # exact trace of the product of [[lam, -k_j], [1, 0]], built entrywise
    # with IntPolynomial arithmetic; no continuant recursion involved
    one, zero, x = IntPolynomial((1,)), IntPolynomial((0,)), IntPolynomial((0, 1))
    t = [[one, zero], [zero, one]]
    for s in signs:
        top = [t[0][j] * x - t[1][j].scaled(s) for j in (0, 1)]
        t = [top, t[0]]
    return t[0][0] + t[1][1]


def test_symbol_poly_exact_long_periods():
    # large coefficients, where floating-point routes to p lose exactness;
    # 34 and 68 are the parity doublings of "-" * 17 and "+-" * 17; at 136
    # the largest |coefficient| is about 3.3e8 * 2^63, past int64
    for text in ("-" * 32, "-" * 34, "+-" * 34, "-" * 136):
        k = parse_sign_vector(text)
        assert IntPolynomial(tuple(symbol_poly(k))) == _int_transfer_trace(k.signs), text


def test_symbol_poly_exact_period_64():
    # the all-minus word and seeded words eight sign flips away from it,
    # whose coefficients are among the largest at this period
    rng = np.random.default_rng(64)
    full = (1 << 64) - 1
    words = [SignVector(64, full)]
    for _ in range(4):
        flips = sum(1 << int(pos) for pos in rng.choice(64, 8, replace=False))
        words.append(SignVector(64, full ^ flips))
    for k in words:
        assert IntPolynomial(tuple(symbol_poly(k))) == _int_transfer_trace(k.signs), k.to_text()


def test_corner_identity_sampled():
    # det(a(phi) - lam I) = (-1)^m (p(lam) - e^{i phi} K - e^{-i phi})
    rng = np.random.default_rng(314159)
    for m in range(1, 6):
        for k in all_sign_vectors(m):
            p = IntPolynomial(tuple(symbol_poly(k)))
            sign = (-1.0) ** m
            for _ in range(10):
                phi = rng.uniform(0, 2 * np.pi)
                lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                lu = symbol_char_value(k, phi, lam)
                pval, _ = evaluate(p, lam)
                rhs = sign * (
                    pval - k.product() * np.exp(1j * phi) - np.exp(-1j * phi)
                )
                assert abs(lu - rhs) <= 1e-9 * (1 + abs(lam)) ** m


def test_even_parity_cosine_form_sampled():
    rng = np.random.default_rng(271828)
    for m in range(1, 6):
        for k in all_sign_vectors(m):
            if k.product() == -1:
                continue
            p = IntPolynomial(tuple(symbol_poly(k)))
            sign = (-1.0) ** m
            for _ in range(10):
                phi = rng.uniform(0, 2 * np.pi)
                lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                lu = symbol_char_value(k, phi, lam)
                rhs = sign * (evaluate(p, lam)[0] - 2 * np.cos(phi))
                assert abs(lu - rhs) <= 1e-9 * (1 + abs(lam)) ** m


def _symbol_eigenvalues(k, phi):
    # spec(a(phi)) with multiplicity: roots of p - K e^{i phi} - e^{-i phi}
    target = k.product() * cmath.exp(1j * phi) + cmath.exp(-1j * phi)
    return preimages(symbol_poly(k), [target])[0]


@pytest.mark.parametrize(
    "text,phi,expected",
    [
        ("+", np.pi / 2, [0]),
        ("++", 0.0, [2, -2]),
    ],
)
def test_symbol_eigenvalues_examples(text, phi, expected):
    got = _symbol_eigenvalues(parse_sign_vector(text), phi)
    assert match_multisets(got, expected, 1e-10)


def test_symbol_eigenvalues_double_point():
    # p - target has a double root here; the cluster is reported as-is
    got = _symbol_eigenvalues(parse_sign_vector("++"), np.pi)
    assert match_multisets(got, [0, 0], 1e-4)


def test_symbol_eigenvalues_match_lu_oracle():
    rng = np.random.default_rng(5150)
    for m in range(1, 7):
        patterns = list(all_sign_vectors(m))
        for _ in range(4):
            k = patterns[int(rng.integers(0, len(patterns)))]
            phi = rng.uniform(0, 2 * np.pi)
            for lam in _symbol_eigenvalues(k, phi):
                resid = abs(symbol_char_value(k, phi, complex(lam)))
                assert resid <= 1e-8 * (1 + abs(lam)) ** m


@pytest.mark.parametrize(
    "coeffs,targets,expected",
    [
        ((0, 1), (-2, 0, 2), (-2, 0, 2)),
        ((0, 0, 1), (-2,), (1j * np.sqrt(2), -1j * np.sqrt(2))),
        ((-2, 0, 1), (2,), (2, -2)),
    ],
)
def test_preimage_examples(coeffs, targets, expected):
    solved = preimages(coeffs, targets)
    assert match_multisets(np.concatenate(solved), expected, 1e-8)


def test_preimage_counts():
    p = (1, 2, 0, 1)
    solved = preimages(p, [0.5, -1j, 3])
    assert solved.shape == (3, 3)
    for t, vals in zip([0.5, -1j, 3], solved):
        assert np.abs(vals**3 + 2 * vals + 1 - t).max() <= 1e-9
    assert preimages(p, []).shape == (0, 3)
    with pytest.raises(ValueError):
        preimages((7,), [0.0])


def test_preimages_of_a_stack_loop_targets_inside_rows():
    rows = symbol_poly(np.array([[1, 1, -1, -1], [1, -1, 1, -1], [-1, -1, -1, -1]]))
    targets = [2.0, 0.5, -1j, -2.0]
    got = preimages(rows, targets)
    assert got.shape == (len(rows) * len(targets), 4)
    for i, row in enumerate(rows):
        for t, vals in zip(targets, preimages(row, targets)):
            assert vals.tobytes() == got[i * len(targets) + targets.index(t)].tobytes()
    assert preimages(rows, []).shape == (0, 4)


def test_periodic_spectrum_identity_pattern():
    cloud = periodic_spectrum(parse_sign_vector("+"), 3)
    vals = np.sort_complex(cloud.values())
    assert np.array_equal(vals, np.array([-2, 0, 2], dtype=complex))
    assert set(tags(cloud)) == {"per:m=1:phi=0.000", "per:m=1:phi=1.571", "per:m=1:phi=3.142"}


@pytest.mark.parametrize("samples", [3, 257, 5001])
def test_periodic_spectrum_is_the_merge_of_one_cloud_per_angle(samples):
    # one cloud per pattern, with one tag code per angle, must equal merging
    # one single-tag cloud per angle; at 5001 samples neighbouring angles
    # print alike at 3 decimals and share a tag
    k = parse_sign_vector("+-++")
    cloud = periodic_spectrum(k, samples)
    p = symbol_poly(parse_sign_vector("+-++" * 2))
    targets = [two_cos_pi(s, samples - 1) for s in range(samples)]
    parts = [
        SpectrumCloud.from_values(vals, f"per:m=8:phi={math.pi * s / (samples - 1):.3f}")
        for s, vals in enumerate(preimages(p, targets))
    ]
    want = SpectrumCloud().merged(*parts)
    assert cloud.values().tobytes() == want.values().tobytes()
    assert tags(cloud) == tags(want)
    assert cloud.table() == want.table()


def test_periodic_spectrum_sample_cap(monkeypatch):
    # the cap is checked before the target list or any row is built; at the
    # cap the solve is reached, here replaced by a sentinel
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(symbol, "preimages", reached)
    with pytest.raises(Reached):
        periodic_spectrum(parse_sign_vector("+"), SAMPLES_CAP)
    monkeypatch.setattr(symbol, "two_cos_pi", reached)
    msg = f"{SAMPLES_CAP + 1} angle samples above cap {SAMPLES_CAP}"
    with pytest.raises(CapExceededError, match=msg):
        periodic_spectrum(parse_sign_vector("+"), SAMPLES_CAP + 1)


def test_periodic_spectrum_imaginary_segment():
    cloud = periodic_spectrum(parse_sign_vector("-"), 257)
    v = cloud.values()
    assert len(v) == 2 * 257  # parity doubling makes the polynomial quadratic
    assert np.abs(v.real).max() <= 1e-8
    assert np.abs(v.imag).max() <= 2 + 1e-12


def test_periodic_spectrum_alternating_pattern_quartic():
    # "+-" has odd parity, so sampling doubles the word; the doubled word
    # has trace polynomial lam^4 + 2 and the targets sweep [-2, 2]
    cloud = periodic_spectrum(parse_sign_vector("+-"), 65)
    v = cloud.values()
    assert len(v) == 4 * 65
    w = v**4 + 2
    assert np.abs(w.imag).max() <= 1e-8
    assert w.real.min() >= -2 - 1e-8
    assert w.real.max() <= 2 + 1e-8


def test_periodic_spectrum_symmetries():
    # clouds close under conjugation and negation; the 2e-4 slack covers
    # root clusters at the segment endpoints where p - target degenerates
    for m in range(1, 7):
        for k in all_sign_vectors(m):
            v = periodic_spectrum(k, 17).values()
            assert match_multisets(v, np.conj(v), 2e-4), k.to_text()
            assert match_multisets(v, -v, 2e-4), k.to_text()


def test_periodic_spectrum_rejects_short_sampling():
    with pytest.raises(ValueError):
        periodic_spectrum(parse_sign_vector("+"), 1)


def test_periodic_spectrum_of_a_stack_is_the_merge_of_its_patterns():
    # a stack of even-parity patterns gives their clouds concatenated in
    # stack order, bit for bit, with one shared tag per angle
    words = [k for k in all_sign_vectors(6) if k.product() == 1][::3]
    stack = np.array([k.signs for k in words])
    for samples in (2, 17):
        got = periodic_spectrum(stack, samples)
        want = SpectrumCloud().merged(*(periodic_spectrum(k, samples) for k in words))
        assert got.values().tobytes() == want.values().tobytes()
        assert tags(got) == tags(want)
        assert got.table() == want.table()
    # the segment form needs even parity; an odd row is refused, not doubled
    with pytest.raises(ValueError):
        periodic_spectrum(np.array([[1, 1], [1, -1]]), 5)


def test_periodic_error_names_period_pattern_and_angle(monkeypatch):
    monkeypatch.setattr(symbol, "roots_many", functools.partial(polyroot.roots_many, max_iter=1))
    stack = np.array([[1, 1, 1, 1, 1, 1], [1, -1, 1, 1, -1, 1], [-1, -1, 1, -1, -1, 1]])
    targets = [two_cos_pi(s, 8) for s in range(9)]
    with pytest.raises(ConvergenceError) as raw:
        preimages(symbol_poly(stack), targets)
    with pytest.raises(ConvergenceError) as exc:
        periodic_spectrum(stack, 9)
    # the input row and the residual pass through; the message names the rest
    assert exc.value.row == raw.value.row and exc.value.worst_residual == raw.value.worst_residual
    r, s = divmod(exc.value.row, 9)
    word = "".join("-" if x < 0 else "+" for x in stack[r])
    assert str(exc.value) == f"periodic spectrum, period 6, pattern {word}, angle {s}: {raw.value}"
    # the named pattern fails on its own at the named angle too
    with pytest.raises(ConvergenceError):
        preimages(symbol_poly(parse_sign_vector(word)), [targets[s]])


@pytest.mark.xfail(strict=True, reason="Horner on monomial coefficients loses accuracy with the period")
def test_periodic_spectrum_matches_eigvals_at_interior_angles():
    # every point within 1e-12 max(1, |lambda|) of the eigenvalues of the
    # symbol matrix, both ways, at periods 24, 40, 68 and 90; today the
    # error grows from about 6e-13 at period 24 to 7e-2 at period 90
    for text in ("+-++" * 6, "+-++" * 10, "+-" * 34, "+--" * 30):
        k = parse_sign_vector(text)
        got = periodic_spectrum(k, 257).values().reshape(257, len(k))
        for s in (32, 80, 128, 176, 224):
            want = np.linalg.eigvals(symbol_array(k, np.pi * s / 256))
            d = np.abs(got[s][:, None] - want[None, :])
            assert (d.min(axis=1) <= 1e-12 * np.maximum(1, np.abs(got[s]))).all(), (text, s)
            assert (d.min(axis=0) <= 1e-12 * np.maximum(1, np.abs(want))).all(), (text, s)


def test_cloud_plumbing():
    c = SpectrumCloud.from_values(np.array([1 + 2j, 0]), "a")
    assert len(c) == 2 and bool(c)
    d = c.merged(SpectrumCloud.from_values(np.array([5.0]), "b"))
    assert tags(d.sorted()) == ["a", "a", "b"]
    snapped = SpectrumCloud.from_values(np.array([0, 1e-9, 1.0]), "x").snapped()
    assert len(snapped) == 2
    with pytest.raises(ValueError, match="1 codes for 2 values"):
        SpectrumCloud([1.0, 2.0], [0], ("a",))

    # codes index a sorted tag table, so "fin:n=10" sorts before "fin:n=2"
    a = SpectrumCloud.from_values(np.array([1.0, 0.0]), "fin:n=2")
    b = SpectrumCloud.from_values(np.array([0.0]), "fin:n=10")
    e = a.merged(b).sorted()
    assert tags(e) == ["fin:n=10", "fin:n=2", "fin:n=2"]
    assert np.array_equal(e.values(), [0, 0, 1])

    # the sort is stable: a -0.0/0.0 tie keeps its input order
    for zeros in ([0.0, -0.0], [-0.0, 0.0]):
        z = SpectrumCloud.from_values(np.array([1.0, *zeros]), "t").sorted()
        assert np.signbit(z.values().real).tolist() == [*np.signbit(zeros), False]

    # merging remaps codes from different tag tables into the union table
    f = SpectrumCloud(np.array([2.0, 5.0, 1.0]), [1, 0, 1], ("a", "c"))
    m = SpectrumCloud.from_values(np.array([3.0, 1j]), "b").merged(
        f, SpectrumCloud.from_values(np.array([4.0]), "a")
    )
    assert tags(m) == ["b", "b", "c", "a", "c", "a"]
    assert np.array_equal(m.values(), [3, 1j, 2, 5, 1, 4])
    assert tags(m.sorted()) == ["b", "c", "c", "b", "a", "a"]

    # one tag per row of a 2-D array; equal tags share one table entry
    r = SpectrumCloud.from_values([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], ["y", "x", "y"])
    assert tags(r) == ["y", "y", "x", "x", "y", "y"] and r.table() == ("x", "y")
    assert r.codes().tolist() == [1, 1, 0, 0, 1, 1]
    with pytest.raises(ValueError):
        SpectrumCloud.from_values([1.0, 2.0], ["a", "b"])
    assert len(SpectrumCloud().merged(SpectrumCloud())) == 0

    # +-0.4 cell offsets from the origin all round to the origin's cell;
    # the kept points stay in (re, im) order, not in cell order
    cell = SNAP_CELL
    offsets = np.array([0.4, -0.4, 0.4j, -0.4j, 0.4 - 0.4j, 1, 0.2 + 1j, 0.1 + 5j]) * cell
    snapped = SpectrumCloud.from_values(offsets, "s").snapped()
    assert np.array_equal(snapped.values(), np.array([-0.4, 0.1 + 5j, 0.2 + 1j, 1]) * cell)


def test_from_values_views_a_fresh_complex_array():
    fresh = np.arange(6, dtype=complex).reshape(2, 3)
    for tag in ("a", ["a", "b"]):
        values = SpectrumCloud.from_values(fresh, tag).values()
        assert np.shares_memory(values, fresh)
        assert not values.flags.writeable
    assert fresh.flags.writeable
