"""Top-level acceptance suite.

One test per shipped guarantee, each with its tolerance and runtime budget
spelled out inline.  The terminal summary hook in conftest.py prints a
per-criterion PASS/FAIL table after the run.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from signspectra.cli_io import main
from signspectra.cloud import SpectrumCloud
from signspectra.density import density_report, directed_hausdorff, periodic_union
from signspectra.embed import block_circulant_charpoly, verify_embedding
from signspectra.finite import charpoly_finite, enumerate_sigma, finite_eigenvalues
from signspectra.polyroot import IntPolynomial, roots_many
from signspectra.signmodel import ensure_even_parity, parse_sign_vector
from signspectra.symbol import periodic_spectrum, symbol_poly, two_cos_pi

from oracles import (
    ComplexPolynomial,
    TridiagSignMatrix,
    all_sign_vectors,
    circulant_factorization_check,
    dense_matrix,
    evaluate,
    from_roots,
    int_charpoly_oracle,
    match_multisets,
    ones,
    read_cloud_csv,
    symbol_char_values,
)

# density baselines at max_n=8, max_m=4, samples=257, disk_step=0.1,
# recorded at first build; the hausdorff scan is bit-exact, so later runs
# must reproduce them to rounding
PI_DISTANCE_BASELINE = {
    2: 0.9999999999997224,
    3: 0.5176380902047499,
    4: 0.456850251747972,
    5: 0.35830352037364055,
    6: 0.35830352037364055,
    7: 0.2740749870372354,
    8: 0.2662048163919127,
}
DISK_DISTANCE_BASELINE = {
    2: 0.7653668647301797,
    3: 0.45556428772462765,
    4: 0.4343145750507654,
    5: 0.3332223633665431,
    6: 0.3332223633665431,
    7: 0.2483872305386045,
    8: 0.22766830602180602,
}


def _corner_residuals(k, rng, count, even_form):
    """Worst normalized gap between the LU determinant and the trace form."""
    m = len(k)
    p = symbol_poly(k)
    phis = rng.uniform(0.0, 2.0 * np.pi, count)
    lams = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    lu = symbol_char_values(k, phis, lams)
    pvals = np.polyval(p[::-1].astype(complex), lams)
    if even_form:
        rhs = (-1.0) ** m * (pvals - 2.0 * np.cos(phis))
    else:
        rhs = (-1.0) ** m * (
            pvals - k.product() * np.exp(1j * phis) - np.exp(-1j * phis)
        )
    return np.max(np.abs(lu - rhs) / (1.0 + np.abs(lams)) ** m)


def test_c01_symbol_identity_exhaustive():
    """LU determinant equals the corner-corrected trace form, periods 1..10,
    50 random (phi, lambda) pairs per pattern, within 1e-9 (1+|lambda|)^m,
    under 60 s."""
    started = time.monotonic()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for m in range(1, 11):
        for k in all_sign_vectors(m):
            worst = max(worst, _corner_residuals(k, rng, 50, even_form=False))
    elapsed = time.monotonic() - started
    assert worst <= 1e-9, f"worst normalized residual {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_c02_even_parity_cosine_form():
    """For even-parity patterns the corner term collapses to 2 cos(phi)."""
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for m in range(1, 11):
        for k in all_sign_vectors(m):
            if k.product() == -1:
                continue
            worst = max(worst, _corner_residuals(k, rng, 50, even_form=True))
    assert worst <= 1e-9, f"worst normalized residual {worst:.3e}"


def test_c03_circulant_factorization():
    """Sampled determinant factorization of every block circulant with
    m <= 4, n <= 6, under 120 s."""
    started = time.monotonic()
    for m in range(1, 5):
        for k in all_sign_vectors(m):
            for n in range(2, 7):
                assert circulant_factorization_check(k, n), (k.to_text(), n)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


def _half_angle_trace(n):
    """q_n with q_n(z + 1/z) = z^n + z^-n, built from the two-term ladder."""
    x = IntPolynomial((0, 1))
    a, b = IntPolynomial((2,)), x
    for _ in range(n):
        a, b = b, b * x - a
    return a


def _divide_linear(p, r):
    """Exact division of p by (x - r) over the integers; returns remainder."""
    hi_first = list(p.coeffs)[::-1]
    qs = [hi_first[0]]
    for c in hi_first[1:]:
        qs.append(c + r * qs[-1])
    return IntPolynomial(tuple(qs[:-1][::-1])), qs[-1]


def _int_sqrt_poly(q):
    """Monic integer square root of a monic even-degree perfect square."""
    d = len(q.coeffs) - 1
    h = d // 2
    w = [0] * (h + 1)
    w[h] = 1
    for i in range(h - 1, -1, -1):
        s = sum(w[a] * w[h + i - a] for a in range(i + 1, h))
        w[i] = (q.coeffs[h + i] - s) // 2
    return IntPolynomial(tuple(w))


def _interior_angle_factor(n):
    """V_n with q_n(t) - 2 = (t - 2) (t + 2)^[n even] V_n(t)^2.

    Its roots are exactly the values 2 cos(2 pi j / n) at the interior
    angles j in 1..n-1 minus n/2, each simple.
    """
    base = _half_angle_trace(n) - IntPolynomial((2,))
    q, r = _divide_linear(base, 2)
    assert r == 0
    if n % 2 == 0:
        q, r = _divide_linear(q, -2)
        assert r == 0
    return _int_sqrt_poly(q)


def _compose(outer, inner):
    acc = IntPolynomial((0,))
    for c in outer.coeffs[::-1]:
        acc = acc * inner + IntPolynomial((c,))
    return acc


def test_c04_embedding_residuals_and_multiplicity():
    """Every guaranteed target of every pattern with m <= 4, n in 3..8 is an
    eigenvalue of the truncated matrix (residual <= 1e-8), and for
    n m_eff <= 24 the full circulant characteristic polynomial factors
    exactly over the integers with the target factor squared."""
    for m in range(1, 5):
        for k in all_sign_vectors(m):
            for n in range(3, 9):
                res = verify_embedding(k, n)
                assert res.verified, (k.to_text(), n, res.worst_residual)
                assert res.worst_residual <= 1e-8

    certified = 0
    for m in range(1, 5):
        for k in all_sign_vectors(m):
            keff = ensure_even_parity(k)
            p_int = IntPolynomial(tuple(symbol_poly(keff)))
            for n in range(3, 9):
                if n * len(keff) > 24:
                    continue
                vn = _interior_angle_factor(n)
                # targets are roots of V_n composed with the trace polynomial
                for j in range(1, n):
                    if 2 * j == n:
                        continue
                    val = np.polyval(
                        np.asarray(vn.coeffs[::-1], dtype=float),
                        two_cos_pi(2 * j, n),
                    )
                    assert abs(val) <= 1e-9, (n, j, val)
                rhs = p_int - IntPolynomial((2,))
                if n % 2 == 0:
                    rhs = rhs * (p_int + IntPolynomial((2,)))
                vp = _compose(vn, p_int)
                rhs = rhs * vp * vp
                if (n * len(keff)) % 2:
                    rhs = rhs.scaled(-1)
                got = block_circulant_charpoly(keff, n)
                assert got.coeffs == rhs.coeffs, (k.to_text(), n)
                certified += 1
    assert certified == 104


def test_c05_known_spectra():
    """Periodic all-plus and all-minus clouds land on [-2, 2] and i [-2, 2]
    to 1e-9; the three smallest finite spectra match closed forms to 1e-10."""
    plus = periodic_spectrum(parse_sign_vector("+"), 1025).values()
    assert np.abs(plus.imag).max() <= 1e-9
    assert np.abs(plus.real).max() <= 2 + 1e-9
    assert abs(plus.real.max() - 2) <= 1e-9 and abs(plus.real.min() + 2) <= 1e-9

    minus = periodic_spectrum(parse_sign_vector("-"), 1025).values()
    assert np.abs(minus.real).max() <= 1e-9
    assert np.abs(minus.imag).max() <= 2 + 1e-9
    assert abs(minus.imag.max() - 2) <= 1e-9 and abs(minus.imag.min() + 2) <= 1e-9

    r2 = np.sqrt(2.0)
    for text, want in (
        ("+", [1, -1]),
        ("-", [1j, -1j]),
        ("++", [0, r2, -r2]),
    ):
        got = finite_eigenvalues(parse_sign_vector(text)).values()
        assert match_multisets(got, want, 1e-10), text


@pytest.mark.slow
def test_c06_finite_inside_periodic_union():
    """Distance from every size <= 6 finite eigenvalue to the sampled union
    of period <= 7 operators, asserted below 1e-6, under 10 minutes.

    This check fails and is kept failing as an honest record: the size-6
    matrix with pattern -+--+ has an eigenvalue near -0.36981 - 1.00708j
    (a root of x^6 + x^4 - 1) whose distance to every period <= 7 cloud is
    about 4.8e-2.  That eigenvalue is covered only from period 14 on, by
    the reflected doubling of its pattern, so no sampling density at these
    periods can close the gap.
    """
    started = time.monotonic()
    sigma = SpectrumCloud().merged(*[enumerate_sigma(n) for n in range(1, 7)])
    pi = periodic_union(7, 4097)
    dist = directed_hausdorff(sigma, pi)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.1f} s"
    assert dist <= 1e-6, f"directed distance {dist:.6e} at periods <= 7"


def test_c07_square_bound():
    """All finite eigenvalues up to size 12 satisfy |re| + |im| <= 2."""
    for n in range(1, 13):
        v = enumerate_sigma(n).values()
        reach = (np.abs(v.real) + np.abs(v.imag)).max()
        assert reach <= 2 + 1e-8, (n, reach)


def test_c08_oracle_equivalence():
    """Continuant charpoly equals the division-free dense oracle for every
    pattern up to size 10, and the bucketized Hausdorff scan equals brute
    force bitwise on 100 seeded clouds."""
    for n in range(1, 11):
        for k in all_sign_vectors(n):
            a = dense_matrix(TridiagSignMatrix(k, ones(n))).astype(int)
            want = int_charpoly_oracle(a).scaled((-1) ** (n + 1))
            assert tuple(charpoly_finite(k)) == want.coeffs

    for seed in range(100):
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(1, 200))
        ny = int(rng.integers(1, 300))
        scale = 10.0 ** rng.uniform(-2, 2)
        xs = scale * (rng.uniform(-2, 2, nx) + 1j * rng.uniform(-2, 2, nx))
        ys = scale * (rng.uniform(-2, 2, ny) + 1j * rng.uniform(-2, 2, ny))
        brute = np.abs(xs[:, None] - ys[None, :]).min(axis=1).max()
        got = directed_hausdorff(
            SpectrumCloud.from_values(xs, "x"), SpectrumCloud.from_values(ys, "y")
        )
        assert got == brute, seed


@pytest.mark.slow
def test_c09_figure_artifacts_and_density_trend(tmp_path):
    """Scatter artifacts for the size-12 accumulated spectra and the
    period <= 8 union, plus the density report against pinned baselines,
    under 15 minutes."""
    started = time.monotonic()

    sigma_csv = tmp_path / "sigma12.csv"
    assert main(["enumerate", "--n", "12", "--accumulate", "--out", str(sigma_csv)]) == 0
    assert sum(1 for _ in open(sigma_csv)) == 98304 + 1
    manifest = json.loads((tmp_path / "sigma12.csv.manifest.json").read_text())
    assert manifest["outputs"][0]["sha256"]

    sigma_svg = tmp_path / "sigma12.svg"
    args = ["enumerate", "--n", "12", "--accumulate", "--dedup", "--format", "svg"]
    assert main([*args, "--out", str(sigma_svg)]) == 0
    text = sigma_svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert 0 < text.count("<circle") < 98304

    pi_csv = tmp_path / "pi8.csv"
    pi_args = ["spectrum", "--mode", "periodic", "--union-max-m", "8", "--samples", "257"]
    assert main([*pi_args, "--out", str(pi_csv)]) == 0
    pi_cloud = read_cloud_csv(str(pi_csv))
    assert len(pi_cloud) == 185040

    pi_svg = tmp_path / "pi8.svg"
    assert main([*pi_args, "--format", "svg", "--out", str(pi_svg)]) == 0
    assert pi_svg.read_text().count("<circle") == 185040

    rep = density_report(8, 4, 257, 0.1)
    assert rep.monotone()
    for n in range(2, 9):
        assert abs(rep.pi_distances[n] - PI_DISTANCE_BASELINE[n]) <= 1e-9, n
        assert abs(rep.disk_distances[n] - DISK_DISTANCE_BASELINE[n]) <= 1e-9, n

    elapsed = time.monotonic() - started
    assert elapsed < 900.0, f"took {elapsed:.1f} s"


def _solve_by_degree(rows):
    """Roots of each row, from one roots_many call per row length."""
    solved = [None] * len(rows)
    for width in sorted({len(c) for c in rows}):
        idx = [i for i, c in enumerate(rows) if len(c) == width]
        for i, rts in zip(idx, roots_many(np.array([rows[i] for i in idx]))):
            solved[i] = rts
    return solved


def test_c10_root_finder_contracts():
    """10^4 random polynomials of degree <= 64 solve to normalized residual
    1e-10; reconstruction from computed roots matches monic input to 1e-6
    for degree <= 32."""
    rng = np.random.default_rng(414213562)
    rows = []
    for _ in range(10000):
        d = int(rng.integers(1, 65))
        c = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        while abs(c[-1]) < 1e-3:
            c[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rows.append(c)
    worst = 0.0
    for c, rts in zip(rows, _solve_by_degree(rows)):
        poly = ComplexPolynomial(tuple(c))
        for r in rts:
            v, s = evaluate(poly, complex(r))
            worst = max(worst, abs(v) / s)
    assert worst <= 1e-10, f"worst normalized residual {worst:.3e}"

    rng = np.random.default_rng(77245385)
    rows = []
    for _ in range(2000):
        d = int(rng.integers(1, 33))
        c = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        while abs(c[-1]) < 1e-3:
            c[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rows.append(c)
    worst = 0.0
    for c, rts in zip(rows, _solve_by_degree(rows)):
        monic = np.asarray(c, dtype=complex) / c[-1]
        rebuilt = from_roots(rts).as_array()
        worst = max(worst, np.abs(rebuilt - monic).max())
    assert worst <= 1e-6, f"worst reconstruction gap {worst:.3e}"
