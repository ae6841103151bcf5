"""Polynomial containers, evaluation, and the simultaneous root iteration."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from signspectra import polyroot
from signspectra.errors import CapExceededError, ConvergenceError
from signspectra.finite import _orbits, charpoly_finite
from signspectra.polyroot import IntPolynomial, roots_many
from signspectra.signmodel import SignVector, ensure_even_parity, parse_sign_vector
from signspectra.symbol import symbol_poly, two_cos_pi

from oracles import (
    ComplexPolynomial,
    aberth_reference,
    evaluate,
    from_roots,
    int_charpoly_oracle,
    match_multisets,
    reflected,
    roots,
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
    with pytest.raises(ValueError, match="at least one coefficient"):
        IntPolynomial(())


def test_int_polynomial_exact_arithmetic():
    a = IntPolynomial((1, 2))
    b = IntPolynomial((-1, 0, 3))
    assert (a + b).coeffs == (0, 2, 3)
    assert (a - b).coeffs == (2, 2, -3)
    assert (a * b).coeffs == (-1, -2, 3, 6)
    big = IntPolynomial((1 << 100, 1))
    assert (big * big).coeffs[0] == 1 << 200
    # gcd(x^2 - 1, 2x + 2) = x + 1 whichever operand comes first
    square, line = IntPolynomial((-1, 0, 1)), IntPolynomial((2, 2))
    assert line.gcd(square) == square.gcd(line) == IntPolynomial((1, 1))
    # a constant, zero included, has no squarefree factor of positive degree
    assert IntPolynomial((5,)).squarefree() == [] == IntPolynomial((0,)).squarefree()


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


def _left_padded(rows):
    """Rows of any lengths as one 2-D array, zero-padded at the low end.

    Each pad is a factor x, so it adds exact zero roots in front of the
    row's own roots, which stay in the last len - 1 columns.
    """
    width = max(len(row) for row in rows)
    return np.array([np.r_[np.zeros(width - len(row)), row] for row in rows], dtype=complex)


def test_roots_many_input_checks():
    with pytest.raises(ValueError):
        roots_many([np.array([1.0, 0.0])])  # zero leading coefficient
    with pytest.raises(ValueError):
        roots_many([np.array([[1.0, 1.0]])])
    with pytest.raises(ValueError):
        roots_many(np.array([[1.0], [2.0]]))  # degree 0
    # rows of different lengths are not one array
    with pytest.raises(ValueError):
        roots_many([np.array([-6.0, 3.0]), np.array([1.0, 1, 1])])


def test_roots_many_returns_one_array_per_call():
    for width in (2, 3, 9):
        got = roots_many(np.zeros((0, width)))
        assert got.shape == (0, width - 1) and got.dtype == complex
    got = roots_many(np.array([[-6, 3, 0, 1], [0, 0, 0, 1]]))
    assert got.shape == (2, 3) and got.dtype == complex


def test_roots_many_rows_do_not_depend_on_the_batch():
    # embed solves its allowed and excluded targets in one batch, and rows of
    # one degree stop iterating at different steps; each row's roots must be
    # the very floats it gets when solved alone, and a zero-padded row's own
    # roots the very floats of the unpadded row, after exact zeros
    rng = np.random.default_rng(7)
    wilkinson = np.poly(np.arange(1.0, 9.0))[::-1]  # coefficients up to 40320
    rows = [wilkinson, np.r_[-2.0, np.zeros(7), 1.0], np.array([-6.0, 3.0])]
    for deg in (2, 3, 5, 8, 8, 12):
        rows.append(np.r_[rng.integers(-3, 4, deg), 1].astype(complex))
        rows.append(np.r_[0, 0, rng.integers(-3, 4, deg - 1), 1].astype(complex))
    for target in (-2.0, -0.5, 1.0, 1.9):
        rows.append(np.array([-target, 1, 0, -3, 0, 1], dtype=complex))  # p = x^5 - 3x^3 + x
    padded = _left_padded(rows)
    together = roots_many(padded)
    for row, pad, got in zip(rows, padded, together):
        pad_zeros = len(pad) - len(row)
        assert got.tobytes() == roots_many(pad[None])[0].tobytes(), row
        assert got[pad_zeros:].tobytes() == roots_many(row[None])[0].tobytes(), row
        assert (got[:pad_zeros] == 0).all(), row


def test_mixed_batch_is_bitwise_equal_to_solving_each_row_alone():
    # lengths 2..12, zero-root counts 0..3, halved and unhalved rows, linear
    # cores in x and in mu, and -x^3 (x^2 + 1)^4, which needs the squarefree
    # split, padded into one batch; the peel, the evenness test and the
    # output are array-wise
    split = np.array(charpoly_finite(parse_sign_vector("-+---+--+-")), dtype=complex)
    rng = np.random.default_rng(3)
    rows = [
        split,
        np.array([-6.0, 3.0]),
        np.array([0.0, 2, 0, -1]),  # x (2 - x^2): mu core of degree 1
        np.array([1.0, 1, 1]),
        np.array([0.0, 1, 0, 1, 0, 1]),
        np.array([0.0, 0, 1, 1, 0, 1]),
        rng.normal(size=9) + 1j * rng.normal(size=9),
        split[3:],
        np.array([0.0, 0, 0, 1]),
    ]
    together = roots_many(_left_padded(rows))
    assert together.shape == (len(rows), 11)
    for row, got in zip(rows, together):
        own = got[12 - len(row) :]
        assert own.tobytes() == roots_many(row[None])[0].tobytes(), row
        assert (got[: 12 - len(row)] == 0).all(), row
    # the split row's four-fold +-i are exact, after three exact zeros
    assert (together[0][:3] == 0).all()
    assert sorted(together[0][3:].tolist(), key=lambda z: z.imag) == [-1j] * 4 + [1j] * 4


def test_split_row_in_a_batch_of_one_length():
    # length-12 rows: the split row -x^3 (x^2 + 1)^4 and its negation next to
    # rows with 0..3 exact zero roots, complex, integer and even (halved)
    # cores; every row should be bitwise equal to the same row solved alone
    split = np.array(charpoly_finite(parse_sign_vector("-+---+--+-")), dtype=complex)
    rng = np.random.default_rng(11)
    rows = [split, -split]
    for z in range(4):
        core = 12 - z
        rows.append(np.r_[np.zeros(z), rng.normal(size=core) + 1j * rng.normal(size=core)])
        rows.append(np.r_[np.zeros(z), rng.integers(1, 4, core) * rng.choice([-1, 1], core)])
        if core % 2:
            even = np.zeros(core)
            even[::2] = rng.integers(1, 4, core // 2 + 1)
            rows.append(np.r_[np.zeros(z), even])
    block = np.array(rows, dtype=complex)
    zeros = (block != 0).argmax(axis=1)
    assert set(zeros.tolist()) == {0, 1, 2, 3}
    together = roots_many(block)
    assert together.shape == (len(rows), 11)
    for row, z, got in zip(block, zeros, together):
        assert got.tobytes() == roots_many(row[None])[0].tobytes(), row
        assert (got[:z] == 0).all() and (got[z:] != 0).all(), row


def test_nonconvergence_carries_worst_residual():
    # x^2 + x + 1 is not even, so it is not reduced to a linear solve in x^2
    with pytest.raises(ConvergenceError) as exc:
        roots(ComplexPolynomial((1, 1, 1)), max_iter=0)
    assert exc.value.worst_residual == np.inf
    with pytest.raises(ConvergenceError) as exc:
        roots(ComplexPolynomial((1.1, 0.3, 1)), tol=1e-30)
    assert 0 < exc.value.worst_residual < 1e-12


def test_nonconvergence_names_the_group_and_the_row():
    # none of the quadratics is even, so each is iterated in x
    rows = [np.array([-6.0, 3.0]), np.array([1.0, 1, 1]), np.array([1.0, 0, 0, 1]),
            np.array([2.0, 1, 1])]
    with pytest.raises(ConvergenceError) as exc:
        roots_many(_left_padded(rows), max_iter=0)
    assert exc.value.row == 1
    assert "degree-2 group of 2 rows, input row 1:" in str(exc.value)
    # x^2 - 3x + 2 reaches residual 0 at 1 and 2 and converges even at tol
    # 1e-30; x^2 + x - 1 cannot, and the error names it rather than the first row
    with pytest.raises(ConvergenceError) as exc:
        roots_many(np.array([[2.0, -3, 1], [-1.0, 1, 1]]), tol=1e-30)
    assert exc.value.row == 1
    assert "degree-2 group of 2 rows, input row 1:" in str(exc.value)


def _recorded_batches(monkeypatch, pairs_bytes):
    # (rows, degree) of every Aberth solve, under a pairwise-array budget
    solve, sizes = polyroot._aberth_batch, []

    def recorded(coeffs, tol, max_iter):
        sizes.append((len(coeffs), coeffs.shape[1] - 1))
        return solve(coeffs, tol, max_iter)

    monkeypatch.setattr(polyroot, "_aberth_batch", recorded)
    monkeypatch.setattr(polyroot, "_PAIRS_BYTES", pairs_bytes)
    return sizes


@pytest.mark.parametrize("name", ["union", "sigma9"])
def test_chunked_groups_are_bitwise_the_whole_group(monkeypatch, name):
    # a group solved in chunks of rows must give the roots of the whole
    # group bit for bit, splits of repeated roots included (sigma_9 has them)
    from signspectra.density import periodic_union
    from signspectra.finite import enumerate_sigma

    build = {"union": lambda: periodic_union(4, 33), "sigma9": lambda: enumerate_sigma(9)}[name]
    whole = build().values()
    sizes = _recorded_batches(monkeypatch, 1 << 12)
    assert build().values().tobytes() == whole.tobytes()
    # every solve's pairwise array fits the budget, and groups did split
    assert all(b * d * d * 16 <= 1 << 12 for b, d in sizes), sizes
    assert len(sizes) > len({d for _, d in sizes})


def test_chunked_failure_names_the_input_row(monkeypatch):
    # x^2 - 3x + 2 converges even at tol 1e-30, x^2 + x - 1 cannot: with two
    # rows per chunk the failing input row 4 sits in the third chunk
    rows = np.array([[2.0, -3, 1]] * 6)
    rows[4] = [-1.0, 1, 1]
    sizes = _recorded_batches(monkeypatch, 2 * 16 * 2 * 2)
    with pytest.raises(ConvergenceError) as exc:
        roots_many(rows, tol=1e-30)
    assert sizes == [(2, 2)] * 3
    assert exc.value.row == 4
    assert "degree-2 group of 6 rows, input row 4:" in str(exc.value)


def _compacting_batch():
    # six degree-8 rows: x^8 - c, whose roots lie on the start circle,
    # perturbed by 1e-14, 1e-8, 1e-2 and 1e-2 (they converge on passes 1, 2,
    # 3 and 3), then two rows with coefficients over six decades (passes 13
    # and 16), so the capped runs below leave the iteration after compacting
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    rows = noise * np.array([1e-14, 1e-8, 1e-2, 1e-2, 1, 1])[:, None]
    rows[:4, 0] -= np.exp(8j * polyroot._ANGLE_OFFSET)
    rows[4:] *= 10.0 ** rng.integers(-3, 4, size=(2, 9))
    rows[:, -1] = 1
    return rows


@pytest.mark.parametrize(
    "max_iter,row,worst",
    [(1, 4, 0.9994636677611206), (3, 4, 0.9984267674174125), (8, 5, 0.9430326798237835)],
)
def test_failure_report_after_rows_have_left_the_iteration(max_iter, row, worst):
    # the report names the worst of the rows still iterating on the last pass
    with pytest.raises(ConvergenceError) as exc:
        roots_many(_compacting_batch(), max_iter=max_iter)
    assert exc.value.row == row
    assert exc.value.worst_residual == worst
    assert str(exc.value) == (
        f"degree-8 group of 6 rows, input row {row}: root iteration did not converge "
        f"within {max_iter} iterations (worst residual {worst:.3e}, tol 1.0e-10)"
    )
    assert roots_many(_compacting_batch()).shape == (6, 8)


_BAD_STEP_ROOTS = [1.5, -2.0, 0.5 + 1j, 0.5 - 1j, -0.25 + 2j, 3j]


@pytest.mark.parametrize("case,digest", [("critical", "e78a17d752e1c643"),
                                         ("coincide", "e42dfda12d869c74")])
def test_bad_step_is_nudged(monkeypatch, case, digest):
    # on the first pass p'(z_0) is made exactly 0 ("critical"), or z_1 is
    # moved onto z_0 ("coincide"); either makes the Aberth correction not
    # finite, so the iterate is nudged instead, and the roots still come out
    row = from_roots(_BAD_STEP_ROOTS).as_array()[None]
    plain = roots_many(row)
    horner, calls = polyroot._horner_batch, []

    def first_pass_bad(c, z, out=None):
        calls.append(None)  # each pass evaluates p, its scale, then p'
        if case == "coincide" and len(calls) == 1:
            z[1, 0] = z[0, 0]  # root-major: root 1 of row 0 onto root 0
        value = horner(c, z, out)
        if case == "critical" and len(calls) == 3:
            value[0, 0] = 0
        return value

    monkeypatch.setattr(polyroot, "_horner_batch", first_pass_bad)
    found = roots_many(row)
    assert match_multisets(found[0], _BAD_STEP_ROOTS, 1e-12)
    assert not np.array_equal(found, plain)
    assert hashlib.sha256(found.tobytes()).hexdigest()[:16] == digest


def _kernel_outcome(kernel, coeffs, max_iter):
    try:
        return kernel(coeffs.copy(), polyroot.DEFAULT_TOL, max_iter).tobytes()
    except ConvergenceError as exc:
        return str(exc), exc.row, exc.worst_residual


def _kernel_batches(step: int = 1):
    # seeded batches of degree 2..24 (every step-th) and 1..300 rows: complex
    # rows, rows whose coefficient moduli spread over eight decades, and
    # integer rows with a repeated root
    rng = np.random.default_rng(28)
    for d in range(2, 25, step):
        b = int(rng.integers(1, 301))
        shape = (b, d + 1)
        rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        yield rows
        yield rows * 10.0 ** rng.uniform(-4, 4, shape)
        r = rng.choice([-3, -2, -1, 1, 2, 3], size=(b, d))
        r[:, 1] = r[:, 0]
        yield np.array([np.poly(x)[::-1] for x in r], dtype=complex)
    # long rows, where the gap sums add slabs over 64 rows or more and, past
    # degree 64, split them in halves: rows of which about 80 % start next to
    # their roots and leave within a few passes, so that each solve crosses
    # below _SLAB_ROWS active rows, and (step 1) the degree-68 rows of
    # +-++ x 17 in mu = x^2 at 64 interior angles, which leave over 182 passes
    if step == 1:
        p = symbol_poly(ensure_even_parity(parse_sign_vector("+-++" * 17)))
        rows = np.repeat(p[None].astype(complex), 64, axis=0)
        rows[:, 0] -= [two_cos_pi(s, 256) for s in range(2, 257, 4)]
        yield rows[:, ::2]
    for d in range(25, 71, 15):
        b = int(rng.integers(64, 97))
        rows = rng.normal(size=(b, d + 1)) + 1j * rng.normal(size=(b, d + 1))
        fast = rng.random(b) < 0.8
        rows[fast] *= 1e-9
        rows[fast, 0] -= np.exp(d * 1j * polyroot._ANGLE_OFFSET)
        rows[:, -1] = 1
        yield rows


def _first_pass_fault(horner, fault, shipped):
    # as in test_bad_step_is_nudged: on the first pass z_1 is moved onto z_0
    # ("coincide") or p'(z_0) is made exactly 0 ("critical") in row 0, so
    # the Aberth correction is not finite and the nudge path runs; the
    # shipped kernel is root-major and evaluates into out, the reference not
    calls = []

    def faulty(c, z, out=None):
        calls.append(None)  # each pass evaluates p, its scale, then p'
        if fault == "coincide" and len(calls) == 1:
            z[(1, 0) if shipped else (0, 1)] = z[0, 0]
        value = horner(c, z, out) if shipped else horner(c, z)
        if fault == "critical" and len(calls) == 3:
            value[0, 0] = 0
        return value

    return faulty, calls


@pytest.mark.slow
@pytest.mark.parametrize("fault", [None, "coincide", "critical"])
def test_aberth_kernel_is_bitwise_the_reference(monkeypatch, fault):
    # the work arrays are allocated once, root-major, and the step runs in
    # place, with every operand order kept: numpy's fused complex multiply is
    # not commutative bit for bit, so w * s and s * w can differ in the last
    # bit; the gap sums add in numpy's own order on both sides of _SLAB_ROWS
    failures, shapes = 0, []
    gap_sums = polyroot._gap_sums

    def recorded(z, buf, out):
        shapes.append(z.shape)  # (d, active rows)
        return gap_sums(z, buf, out)

    monkeypatch.setattr(polyroot, "_gap_sums", recorded)
    batches = list(_kernel_batches(1 if fault is None else 4))
    for coeffs in batches:
        for max_iter in (1, 3, polyroot.DEFAULT_MAX_ITER):
            outcomes = []
            for module, name, kernel in ((polyroot, "_horner_batch", polyroot._aberth_batch),
                                         (oracles, "_horner_reference", aberth_reference)):
                horner = getattr(module, name)
                faulty, calls = _first_pass_fault(horner, fault, module is polyroot)
                with monkeypatch.context() as mp:
                    mp.setattr(module, name, faulty)
                    outcomes.append(_kernel_outcome(kernel, coeffs, max_iter))
                assert len(calls) >= 3
            assert outcomes[0] == outcomes[1]
            failures += isinstance(outcomes[0], tuple)
    # every batch fails at 1 and 3 passes
    assert failures >= 2 * len(batches)
    # slabs of over 64 roots were split, and solves crossed from the slab to
    # the axis-2 sum as their rows left
    slab = polyroot._SLAB_ROWS
    assert any(d > 64 and n >= slab for d, n in shapes)
    assert any(n >= slab > m and d == e for (d, n), (e, m) in zip(shapes, shapes[1:]))


def _canonical_nans(a: np.ndarray) -> bytes:
    # which NaN an add returns when both operands are NaN depends on how
    # numpy's loops were compiled; a NaN sum only marks the step bad
    a = a.copy()
    a.real[np.isnan(a.real)] = np.nan
    a.imag[np.isnan(a.imag)] = np.nan
    return a.tobytes()


@pytest.mark.parametrize("slab_rows", [1, 10**9])
def test_gap_sums_are_bitwise_the_axis_sum(monkeypatch, slab_rows):
    # the (d, d, n) slab is added over j in the order numpy's pairwise sum
    # uses along a contiguous axis; if a numpy changes that order, this fails
    monkeypatch.setattr(polyroot, "_SLAB_ROWS", slab_rows)
    rng = np.random.default_rng(33)
    n = 8
    for d in range(2, 141):
        shape = (d, n)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # moduli from 1e-150 to 1e150 in the first half of the rows; in the
        # second, terms of one scale, whose rounding shows any change of order
        z[:, : n // 2] *= 10.0 ** rng.uniform(-150, 150, (d, n // 2))
        z[1, 0] = z[0, 0]  # coincident iterates: infinite and NaN terms
        # real and imaginary iterates, with zero parts of either sign
        z[:, 1].imag = np.where(rng.random(d) < 0.5, -0.0, 0.0)
        z[:, 2].real = np.where(rng.random(d) < 0.5, -0.0, 0.0)
        diff = np.empty((n, d, d), dtype=complex)
        np.subtract(z.T[:, :, None], z.T[:, None, :], out=diff)
        diff.reshape(n, -1)[:, :: d + 1] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.reciprocal(diff).sum(axis=2).T
            got = polyroot._gap_sums(z, np.empty(n * d * d, dtype=complex), np.empty_like(z))
        assert _canonical_nans(got) == _canonical_nans(want), d
        assert not np.isfinite(want[:, 0]).all() and np.isfinite(want[:, 1:]).all()


def _union_largest_group():
    # the rows of the union's largest degree group: every distinct period-16
    # symbol polynomial less each of the 257 targets
    signs = 1 - 2 * ((np.arange(1 << 8)[:, None] >> np.arange(8)) & 1)
    polys = np.unique(symbol_poly(np.tile(signs[signs.prod(axis=1) < 0], 2)), axis=0)
    rows = np.repeat(polys[:, None].astype(complex), 257, axis=1)
    rows[..., 0] -= [two_cos_pi(s, 256) for s in range(257)]
    return rows.reshape(-1, polys.shape[1])


@pytest.mark.parametrize("name", ["sigma14", "union8"])
def test_roots_many_peak_memory(name):
    # one buffer of rows d^2 complex serves the slab and the (n, d, d) view;
    # the peak stays within the row-major kernel's, 8.5 MiB on both inputs
    if name == "sigma14":
        bits, _ = _orbits(14)
        rows = charpoly_finite(1 - 2 * ((bits[:, None] >> np.arange(14)) & 1))
    else:
        rows = _union_largest_group()
    assert rows.shape == {"sigma14": (4160, 16), "union8": (3084, 17)}[name]
    tracemalloc.start()
    try:
        roots_many(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 2**20, peak


def _all_charpolys(max_n):
    # reversed patterns share one charpoly, so one pattern per reversal
    # class (the smaller mask) gives them all
    return [IntPolynomial(tuple(charpoly_finite(SignVector(n, b))))
            for n in range(1, max_n + 1) for b in range(1 << n)
            if reflected(SignVector(n, b)).bits >= b]


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
        assert dp.gcd(d) == g, d
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
    # (2x + 1)(x - 3) by its non-monic factor, and a divisor with leading coefficient -1
    for num, den in (((-3, -5, 2), (1, 2)), ((1, 2, 3, 4), (5, 0, -1))):
        num, den = IntPolynomial(num), IntPolynomial(den)
        q, r = divmod(num, den)
        sq, sr = sympy.div(sym(num), sym(den))
        assert q.coeffs == ours(sq) and r.coeffs == ours(sr), (num, den)
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


def _bits(z):
    # each root as the bit patterns of its real and imaginary parts, sorted
    return sorted(np.asarray(z, dtype=complex).view(np.int64).reshape(-1, 2).tolist())


def _leading_zeros(coeffs):
    return next(i for i, c in enumerate(coeffs) if c != 0)


def test_repeated_root_is_returned_exactly():
    # D = -x^3 (x^2 + 1)^4 for the pattern below: at a 4-fold root plain
    # Aberth stops about tol^(1/4) away; the squarefree split puts each of
    # the four copies of +-i on the rounding floor.  D is solved as x^3
    # times (mu + 1)^4 in mu = x^2, so the split applies to the mu row and
    # the copies come back as exact +- pairs
    d = IntPolynomial(tuple(charpoly_finite(parse_sign_vector("-+---+--+-"))))
    expected, most = _reference_roots(d.coeffs)
    assert most == 4
    r = roots(d)
    assert match_multisets(r, expected, 1e-12)
    assert _bits(r[3:]) == _bits(-r[3:])


def test_forward_error_against_mpmath():
    # every finite charpoly up to n = 6, seeded n = 12 patterns, and symbol
    # rows at the band-edge targets +-2, where double roots sit
    polys = _all_charpolys(6)
    rng = np.random.default_rng(12)
    polys += [IntPolynomial(tuple(charpoly_finite(SignVector(12, int(b)))))
              for b in rng.integers(0, 1 << 12, 12)]
    for word in ("+-", "+--+", "++-+", "+-+--+", "-+++-+++"):
        p = IntPolynomial(tuple(symbol_poly(parse_sign_vector(word))))
        polys += [p - IntPolynomial((t,)) for t in (-2, 2)]
    repeated = 0
    for p in polys:
        expected, most = _reference_roots(p.coeffs)
        repeated += most > 1
        got = roots(p)
        scale = np.maximum(1.0, np.abs(np.asarray(expected)))
        assert match_multisets(got, expected, 1e-12 * scale.max()), p
    assert repeated >= 10


def test_even_rows_come_back_as_exact_plus_minus_pairs():
    # every finite charpoly is x^(N mod 2) q(x^2), and so is an even-period
    # symbol row p - t; the nonzero roots of each are +-sqrt(mu) over the
    # roots mu of q, so they negate onto themselves bit for bit
    polys = _all_charpolys(10)
    for word in ("+-", "++-+", "+-+--+", "-+++-+++"):
        p = IntPolynomial(tuple(symbol_poly(parse_sign_vector(word))))
        polys += [p - IntPolynomial((t,)) for t in (-2, -1, 0, 1, 2)]
    got = roots_many(_left_padded([p.coeffs for p in polys]))
    halved = 0
    for p, r in zip(polys, got):
        assert not any(p.coeffs[1 - _leading_zeros(p.coeffs) % 2::2])
        nonzero = r[len(r) - p.degree + _leading_zeros(p.coeffs):]
        assert (r[: len(r) - len(nonzero)] == 0).all()
        assert _bits(nonzero) == _bits(-nonzero), p
        halved += len(nonzero) >= 4
    assert halved > 1000


def test_odd_times_even_rows_peel_and_halve():
    # x^3 (x^4 - 3x^2 + 1): three exact zeros, then +-sqrt((3 +- sqrt 5)/2)
    r = roots(IntPolynomial((0, 0, 0, 1, 0, -3, 0, 1)))
    assert r[:3].tobytes() == np.zeros(3, dtype=complex).tobytes()
    assert _bits(r[3:]) == _bits(-r[3:])
    golden = (1 + 5**0.5) / 2
    assert match_multisets(r[3:], [golden, -golden, 1 / golden, -1 / golden], 1e-15)
    # x (x^2 - 2) needs no iteration at all
    r = roots(IntPolynomial((0, -2, 0, 1)), max_iter=0)
    assert r.tolist() == [0, 2**0.5, -(2**0.5)]


def test_even_quadratic_is_solved_without_iterating():
    # x^2 + 1 is mu + 1 in mu = x^2: its roots +-i are exact at max_iter=0
    r = roots(IntPolynomial((1, 0, 1)), max_iter=0)
    assert sorted(r.tolist(), key=lambda z: z.imag) == [-1j, 1j]


def test_nonconvergence_of_a_halved_group_names_the_input_degree():
    # x^5 + x^3 + x and x^4 + x^2 + 1 (padded to x^5 + x^3 + x) are both
    # mu^2 + mu + 1 after peeling; the message gives the degree of the named
    # row as the caller passed it
    rows = [np.array([0.0, 1, 0, 1, 0, 1]), np.array([1.0, 1, 1]),
            np.array([1.0, 0, 1, 0, 1])]
    with pytest.raises(ConvergenceError) as exc:
        roots_many(_left_padded(rows), max_iter=0)
    assert exc.value.row == 0
    assert ("degree-2 group (solved in x^2, input degree 5) of 2 rows, input row 0:"
            in str(exc.value))


def test_nonconvergence_of_a_squarefree_factor_names_the_split_row(monkeypatch):
    # input row 3, (x - 1)^2 (x + 2)(x - 3), is split and its factors are
    # solved in a second Aberth call; a failure there names input row 3,
    # not the factor's row in the stack of factors
    rows = np.array([from_roots(r).as_array() for r in
                     ([1, 2, 3, 4], [-1, 2, -3, 5], [1, 3, -4, 6], [1, 1, -2, 3])])
    assert match_multisets(roots_many(rows)[3], [-2, 1, 1, 3], 1e-12)
    solve, calls = polyroot._aberth_batch, []

    def second_call_fails(coeffs, tol, max_iter):
        calls.append(len(coeffs))
        return solve(coeffs, tol, 0 if len(calls) == 2 else max_iter)

    monkeypatch.setattr(polyroot, "_aberth_batch", second_call_fails)
    with pytest.raises(ConvergenceError) as exc:
        roots_many(rows)
    assert calls == [4, 1]
    assert exc.value.row == 3 and exc.value.worst_residual == np.inf
    assert str(exc.value).startswith(
        "squarefree factor of input row 3: degree-2 group of 1 rows, input row 0:")


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
