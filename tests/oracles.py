"""Reference routes that the tests compare the package against.

None of these ship with signspectra.  Each oracle shares no code with the
routine it checks, which is what the agreement tests rely on:

- ``int_charpoly_oracle`` (Berkowitz on the dense matrix) checks the
  continuant behind ``charpoly_finite``;
- ``_continuant`` (the same recursion over Python lists of ints, one
  pattern at a time) checks ``charpoly_finite`` row by row, on both its
  int64 and its object-array path;
- ``symbol_char_values`` (LU determinants of the assembled symbol) checks
  the corner expansion behind ``symbol_poly``;
- ``periodic_union_by_pattern`` (one ``periodic_spectrum`` call per pattern
  with a new symbol polynomial) checks the stacked ``periodic_union``;
- ``density_report_full_scan`` (the carried scan of every folded query
  point at every size, with no probe and nothing dropped) checks the floors
  and the live set of ``density_report``; it shares the scan itself, which
  the density tests check against brute force;
- ``_read_corner_det`` (a continuant read entrywise from the assembled
  matrix) checks ``block_circulant_charpoly`` through
  ``circulant_factorization_check``;
- ``recurrence_by_rows`` (the recurrence that keeps every row and takes
  the norm of the stacked rows) checks the streamed residuals of
  ``verify_embedding``, and its vectors, multiplied by the assembled block
  circulant of ``build_block_circulant`` (or by ``circulant_defect``, its
  banded action, at the size cap), check that every witness residual
  bounds the witness's defect; ``_witness_for`` (dense inverse iteration
  on the assembled block circulant, seeded per target) checks that those
  vectors are the witnesses.

``aberth_reference`` is the Aberth kernel as it was before its work arrays
were allocated once per call, and checks ``polyroot._aberth_batch`` bit for
bit.  ``lexsorted`` (np.lexsort by re, im and tag code) checks the ranked
sort of ``SpectrumCloud.sorted``, and ``number_fields_reference`` (the
CLI's number tables from a second np.unique over the sorted values) checks
the tables the emitters build from the cloud's own ranking.
``read_cloud_csv`` parses the CSV that ``write_cloud_csv`` emits, and
``csv_text_by_point`` and ``svg_circles_by_point`` format the CSV text and
the SVG circles one point at a time with f-strings, and
``json_text_by_point`` encodes one dict per point with ``json.dumps``,
which checks the bytewise table assembly of the CLI's CSV, SVG and JSON
cloud blocks.  ``embed_json_text`` builds the embed result's dicts and
encodes them with ``json.dumps``, which checks the CLI's direct embed
JSON writer.
``roots`` solves one polynomial through ``roots_many``, ``reflected``
reverses a sign pattern, ``ones`` is the all +1 pattern and ``tags`` lists
a cloud's tag per point; all four are conveniences for the tests.

The dense matrices live here too: ``symbol_array`` assembles the symbol
a(phi) and ``build_block_circulant`` the nm x nm block circulant M, which
the package itself never forms.  The oracles may use the package's
containers and its errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from signspectra import cli_io
from signspectra.cloud import SpectrumCloud
from signspectra.density import (
    DensityReport,
    _fold_by_i,
    directed_hausdorff,
    disk_grid,
    periodic_union,
)
from signspectra.errors import CapExceededError, ConvergenceError, ParseError
from signspectra.finite import enumerate_sigma
from signspectra.polyroot import DEFAULT_MAX_ITER, DEFAULT_TOL, IntPolynomial, _trim, roots_many
from signspectra.signmodel import SignVector, ensure_even_parity
from signspectra.symbol import periodic_spectrum, symbol_poly

FACTORIZATION_SIZE_CAP = 64


# ---------------------------------------------------------------- polynomials


@dataclass(frozen=True)
class ComplexPolynomial:
    """Coefficients in ascending degree order; trailing zeros trimmed."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        trimmed = _trim(tuple(complex(c) for c in self.coeffs))
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def monic(self) -> "ComplexPolynomial":
        lead = self.coeffs[-1]
        if lead == 0:
            raise ValueError("zero polynomial has no monic form")
        return ComplexPolynomial(tuple(c / lead for c in self.coeffs))


def evaluate(p: ComplexPolynomial | IntPolynomial, z: complex) -> tuple[complex, float]:
    """Horner value and the coefficient-magnitude scale at z."""
    coeffs = p.coeffs
    acc = 0j
    sc = 0.0
    az = abs(z)
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
        sc = sc * az + abs(complex(c))
    return acc, sc


def from_roots(values: Iterable[complex]) -> ComplexPolynomial:
    """Monic polynomial with the given roots, by coefficient convolution."""
    coeffs = np.array([1.0 + 0j])
    for r in values:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return ComplexPolynomial(tuple(coeffs))


def int_charpoly_oracle(matrix, max_size: int = 12) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A) of an integer matrix.

    Division-free Berkowitz recursion over the leading principal
    submatrices, so every intermediate stays an integer.  Deliberately
    small-scale: refuses sizes above ``max_size`` (default 12) because this
    is a correctness oracle, not a production path.
    """
    a = [[int(v) for v in row] for row in np.asarray(matrix)]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square and nonempty")
    if n > max_size:
        raise CapExceededError(
            f"size {n} above oracle bound {max_size}; pass max_size to raise it"
        )
    check = np.asarray(matrix)
    if not np.array_equal(check, np.array(a)):
        raise ValueError("matrix entries must be integers")

    # c holds det(xI - A_r) for the leading r x r block, descending powers
    c = [1, -a[0][0]]
    for i in range(1, n):
        row = a[i][:i]
        col = [a[t][i] for t in range(i)]
        v = [1, -a[i][i]]
        u = col
        for j in range(i):
            v.append(-sum(row[t] * u[t] for t in range(i)))
            if j < i - 1:
                u = [sum(a[r][t] * u[t] for t in range(i)) for r in range(i)]
        new_c = [0] * (i + 2)
        for ai, va in enumerate(v):
            if va == 0:
                continue
            top = min(i + 2 - ai, len(c))
            for bi in range(top):
                new_c[ai + bi] += va * c[bi]
        c = new_c
    return IntPolynomial(tuple(reversed(c)))


def roots(p, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """All complex roots of p (any container with ascending ``coeffs``), with multiplicity."""
    return roots_many(np.asarray(p.coeffs, dtype=complex)[None], tol, max_iter)[0]


def match_multisets(a, b, tol: float) -> bool:
    """Greedy bipartite matching of two complex multisets at tolerance tol."""
    xs = sorted(np.asarray(a, dtype=complex).ravel(), key=lambda z: (z.real, z.imag))
    ys = list(np.asarray(b, dtype=complex).ravel())
    if len(xs) != len(ys):
        return False
    for x in xs:
        best_i = -1
        best_d = tol
        for i, y in enumerate(ys):
            d = abs(x - y)
            if d <= best_d:
                best_d = d
                best_i = i
        if best_i < 0:
            return False
        ys.pop(best_i)
    return True


# ----------------------------------------------------------------- sign model


@dataclass(frozen=True)
class TridiagSignMatrix:
    """Finite matrix of size n+1: zero diagonal, super pattern, sub pattern."""

    sub: SignVector
    super: SignVector

    def __post_init__(self):
        if self.sub.n != self.super.n:
            raise ValueError(
                f"sub length {self.sub.n} != super length {self.super.n}"
            )

    @property
    def size(self) -> int:
        return self.sub.n + 1


def dense_matrix(t: TridiagSignMatrix) -> np.ndarray:
    """Dense float matrix for a finite tridiagonal sign matrix."""
    size = t.size
    a = np.zeros((size, size))
    sup = np.fromiter(t.super, float)
    sub = np.fromiter(t.sub, float)
    a[np.arange(size - 1), np.arange(1, size)] = sup
    a[np.arange(1, size), np.arange(size - 1)] = sub
    return a


def _continuant(signs, size: int) -> IntPolynomial:
    """D_size = det(T - x I) as an exact integer polynomial.

    T is the size x size zero-diagonal matrix with unit superdiagonal and
    subdiagonal signs[0..size-2].
    """
    prev = [1]
    cur = [0, -1]
    for s in signs[: size - 1]:
        nxt = [0] + [-c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= s * c
        prev, cur = cur, nxt
    return IntPolynomial(tuple(cur))


def ones(n: int) -> SignVector:
    """All +1 pattern of length n."""
    return SignVector(n, 0)


def reflected(k: SignVector) -> SignVector:
    """The pattern read backwards."""
    return SignVector(k.n, int(format(k.bits, f"0{k.n}b")[::-1], 2))


def all_sign_vectors(n: int) -> Iterator[SignVector]:
    """All 2^n sign patterns of length n, in increasing bit-mask order."""
    for bits in range(1 << n):
        yield SignVector(n, bits)


# --------------------------------------------------------------------- symbol


def symbol_array(k: SignVector, phi: float | np.ndarray) -> np.ndarray:
    """Dense m x m array of the symbol at angle phi, or a stack of them.

    The result has shape phi.shape + (m, m).  All contributions are
    accumulated with +=, which resolves the m = 1 and m = 2 degeneracies
    (corner positions coincide with the diagonal or the off-diagonals) by
    entry summation.
    """
    m = len(k)
    signs = k.signs
    phi = np.asarray(phi, dtype=float)
    a = np.zeros(phi.shape + (m, m), dtype=complex)
    idx = np.arange(m - 1)
    if m >= 2:
        a[..., idx, idx + 1] += 1.0
        a[..., idx + 1, idx] += signs[:-1]
    a[..., 0, m - 1] += signs[-1] * np.exp(1j * phi)
    a[..., m - 1, 0] += np.exp(-1j * phi)
    return a


def symbol_char_value(k: SignVector, phi: float, lam: complex) -> complex:
    """det(a(phi) - lambda I) by LU with partial pivoting.

    This is the reference route against which the polynomial identity is
    tested; it shares no code with symbol_poly.
    """
    return complex(symbol_char_values(k, [phi], [lam])[0])


def periodic_union_by_pattern(max_m: int, samples: int) -> SpectrumCloud:
    """The periodic union built one pattern at a time, in (period, mask) order.

    A pattern whose parity-doubled symbol polynomial is new gets its own
    periodic_spectrum call; the others are skipped.  The clouds are merged
    in that order, so after a stable sort tied points keep it too.
    """
    seen = set()
    parts = []
    for m in range(1, max_m + 1):
        for k in all_sign_vectors(m):
            p = tuple(symbol_poly(ensure_even_parity(k)).tolist())
            if p not in seen:
                seen.add(p)
                parts.append(periodic_spectrum(k, samples))
    return SpectrumCloud().merged(*parts)


def density_report_full_scan(
    max_n: int, max_m: int, samples: int, disk_step: float
) -> DensityReport:
    """density_report's distances from one carried scan of every query point.

    The union's points and the disk grid's are folded to one point per
    i-orbit, and each size's sigma_n (sigma_1 joins sigma_2) lowers the
    distance of every folded point; each series' maximum is read after
    every size.
    """
    union = periodic_union(max_m, samples).values()
    disk = disk_grid(disk_step)
    folded, inverse = np.unique(_fold_by_i(np.concatenate([union, disk])), return_inverse=True)
    best = np.full(folded.size, np.inf)
    fresh = enumerate_sigma(1)
    size = 0
    sigma_sizes, pi_distances, disk_distances = {}, {}, {}
    for n in range(2, max_n + 1):
        fresh = fresh.merged(enumerate_sigma(n))
        size += len(fresh)
        sigma_sizes[n] = size
        directed_hausdorff(folded, np.unique(fresh.values()), best)
        pi_distances[n] = float(best[inverse[: union.size]].max())
        disk_distances[n] = float(best[inverse[union.size :]].max())
        fresh = SpectrumCloud()
    return DensityReport(max_n, max_m, samples, disk_step, union.size, sigma_sizes,
                         pi_distances, disk_distances)


def symbol_char_values(k, phis, lams) -> np.ndarray:
    """symbol_char_value over paired (phi, lambda) samples."""
    phis = np.asarray(phis, dtype=float).ravel()
    lams = np.asarray(lams, dtype=complex).ravel()
    if phis.shape != lams.shape:
        raise ValueError("phis and lams must pair up")
    stack = symbol_array(k, phis)
    di = np.arange(len(k))
    stack[:, di, di] -= lams[:, None]
    return np.linalg.det(stack)


# ------------------------------------------------------------ block circulant


def build_block_circulant(k: SignVector, n: int) -> np.ndarray:
    """The nm x nm circulant-coupled tridiagonal matrix for pattern k.

    Identical to the symbol of the n-fold repeated pattern at angle 0, so
    the nm = 2 degeneracy (corners meeting off-diagonals) is resolved by the
    same entry-summation rule.  Parity of k is NOT adjusted here; callers
    that need the even-parity form double the pattern first.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return symbol_array(k.repeated(n), 0.0).real.copy()


def _read_corner_det(matrix: np.ndarray, lam: np.ndarray):
    """det(matrix - lam I) for tridiagonal-plus-corners, vectorized in lam.

    Entry values are read from the matrix, so corruptions on the allowed
    support change the result; positions off the support are the caller's
    job to check.
    """
    size = matrix.shape[0]
    sub = np.diagonal(matrix, -1)
    sup = np.diagonal(matrix, 1)
    a = matrix[0, size - 1]
    c = matrix[size - 1, 0]
    t = sub * sup

    def continuant(tvals):
        prev = np.ones_like(lam)
        cur = -lam
        for tv in tvals:
            prev, cur = cur, -lam * cur - tv * prev
        return cur

    full = continuant(t)
    inner = continuant(t[1:-1])
    wrap = a * np.prod(sub) + c * np.prod(sup)
    sign = 1.0 if (size + 1) % 2 == 0 else -1.0
    return full - a * c * inner + sign * wrap


def circulant_factorization_check(
    k: SignVector,
    n: int,
    tol: float = 1e-9,
    matrix: np.ndarray | None = None,
) -> bool:
    """Spectral factorization test: det(M - xI) vs the symbol product.

    Compares the determinant of the assembled matrix (read entrywise, so
    mutations register) against prod_j det(a(xi_j) - xI) at 4*nm seeded
    sample points on the circle |x| = 3, which keeps every sample at
    distance >= 1 from the spectrum.  Returns False on any mismatch or on
    off-support entries; raises only for sizes beyond the test-scale cap.
    """
    m = len(k)
    size = n * m
    if size > FACTORIZATION_SIZE_CAP:
        raise CapExceededError(
            f"factorization check capped at nm <= {FACTORIZATION_SIZE_CAP}"
        )
    if matrix is None:
        matrix = build_block_circulant(k, n)
    matrix = np.asarray(matrix)
    if matrix.shape != (size, size):
        return False
    if size >= 3:
        support = np.zeros((size, size), dtype=bool)
        idx = np.arange(size - 1)
        support[idx, idx + 1] = True
        support[idx + 1, idx] = True
        support[0, size - 1] = True
        support[size - 1, 0] = True
        if np.any(matrix[~support] != 0):
            return False

    rng = np.random.default_rng(20240331)
    lam = 3.0 * np.exp(2j * np.pi * rng.random(4 * size))

    if size == 2:
        lhs = np.array(
            [np.linalg.det(matrix - z * np.eye(2)) for z in lam], dtype=complex
        )
    else:
        lhs = _read_corner_det(matrix, lam)

    xi = 2.0 * np.pi * np.arange(1, n + 1) / n
    rhs = np.ones_like(lam)
    for z_i, z in enumerate(lam):
        dets = symbol_char_values(k, xi, np.full(n, z))
        rhs[z_i] = np.prod(dets)

    err = np.abs(lhs - rhs)
    ref = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return bool(np.all(err <= tol * ref))


# ------------------------------------------------------------------ witnesses


# rescaling by a power of two is exact; 2^256 keeps every squared
# component of a rescaled solution far from overflow
_RESCALE_BITS = 256


def recurrence_by_rows(signs, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit solutions of x_{t+1} = lam x_t - s_{t-1} x_{t-1}, x_0 = 0, x_1 = 1.

    One column per lam: rows x_0..x_{N-1}, N = len(signs), scaled to unit
    norm, and the residual |x_N| / ||(x_1..x_{N-1})||, which is
    ||L y - lam y|| for the unit vector y = x_1..x_{N-1} of the truncation L
    (subdiagonal s_1..s_{N-2}): every row of L y - lam y but the last is the
    recurrence itself.  A column that outgrows 2^256 is scaled down together
    with its predecessor, and its later rows record the extra exponent.
    """
    prev = np.zeros(lams.size, dtype=complex)
    cur = np.ones(lams.size, dtype=complex)
    shift = np.zeros(lams.size)
    rows, shifts = [prev, cur], [shift, shift]
    for s in signs[:-1]:
        prev, cur = cur, lams * cur - s * prev
        big = np.abs(cur) > 2.0**_RESCALE_BITS
        if big.any():
            scale = np.where(big, 2.0**-_RESCALE_BITS, 1.0)
            prev, cur, shift = prev * scale, cur * scale, shift + big
        rows.append(cur)
        shifts.append(shift)
    # rows x_0..x_{N-1} brought to the scale of x_N
    x = np.array(rows[:-1]) * 2.0 ** (_RESCALE_BITS * (np.array(shifts[:-1]) - shift))
    norm = np.linalg.norm(x, axis=0)
    return x / norm, np.abs(cur) / norm


def circulant_defect(signs, x: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """||M x - lam x|| per column of x for the block circulant M with these
    signs, from its banded action (M x)_t = x_{t+1} + s_{t-1} x_{t-1}
    cyclically: one +1 and one sign per row, so no (N, N) matrix."""
    sub = np.roll(np.asarray(signs, dtype=float), 1)[:, None]
    return np.linalg.norm(np.roll(x, -1, 0) + sub * np.roll(x, 1, 0) - x * lams, axis=0)


def _inverse_iterate(mat: np.ndarray, shift: complex, rng, steps: int = 4):
    size = mat.shape[0]
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    shifted = mat - shift * np.eye(size)
    for _ in range(steps):
        v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v)
    return v


@dataclass(frozen=True)
class DenseWitness:
    vector: np.ndarray
    residual: float


def _witness_for(mat, lam, index, rng) -> DenseWitness:
    """Witness at target lam of mat by inverse iteration from both sides.

    Two shifts lam +- eps span the two-dimensional eigenspace; their
    combination with first component zero is the witness.  Target i is
    seeded with default_rng(1000 + i).
    """
    eps = 1e-7 * max(1.0, abs(lam))
    v = _inverse_iterate(mat, lam + eps, rng)
    w = _inverse_iterate(mat, lam - eps, rng)
    if abs(v[0]) <= 1e-13:
        x = v
    else:
        perp = w - (np.conjugate(v) @ w) * v
        if np.linalg.norm(perp) < 1e-6:
            raise RuntimeError(
                f"eigenspace at target {index} (value {lam:.6g}) is numerically "
                "one-dimensional"
            )
        x = w[0] * v - v[0] * w
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        raise RuntimeError(f"vanishing combination at target {index}")
    x = x / norm
    return DenseWitness(vector=x, residual=float(np.linalg.norm(mat @ x - lam * x)))


# ----------------------------------------------------- reference root kernel


def _horner_reference(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    # c: (B, D+1), z: (B, d), D >= 1; vectorized over both axes
    acc = c[:, -1, None] * z + c[:, -2, None]
    for i in range(c.shape[1] - 3, -1, -1):
        acc = acc * z + c[:, i, None]
    return acc


def _cauchy_radius_reference(absc: np.ndarray) -> np.ndarray:
    """Per row, the positive root r of r^d = sum_{i<d} |c_i| r^i.

    absc: (B, d+1) moduli of monic rows with a nonzero constant term.
    Newton on f(r) = sum_{i<d} |c_i| r^(i-d) - 1, which is convex and
    decreasing, from the lower bound r_0 = max_i |c_i|^(1/(d-i)): there
    f >= 0, so each step rises toward the root without passing it.  The
    terms are formed as (|c_i|^(1/(d-i)) / r)^(d-i) <= 1, which cannot
    overflow at any degree.
    """
    d = absc.shape[1] - 1
    e = np.arange(d, 0, -1, dtype=float)
    base = absc[:, :-1] ** (1.0 / e)
    r = base.max(axis=1)
    for _ in range(6):
        t = (base / r[:, None]) ** e
        r = r * (1.0 + (t.sum(axis=1) - 1.0) / (t * e).sum(axis=1))
    return r


def aberth_reference(coeffs: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Aberth-Ehrlich on a stack of same-degree polynomials, as a reference.

    A verbatim copy of ``polyroot._aberth_batch`` (and its Horner and
    Cauchy-radius helpers) before the solver's work arrays were allocated
    once per call: every pass builds fresh arrays.  The shipped kernel must
    give the same roots and the same failure, bit for bit.

    coeffs: (B, d+1) complex, ascending, leading column nonzero, nonzero
    constant column, d >= 2.  Returns the roots, (B, d).  On failure the
    ConvergenceError carries the batch position of the worst row in ``row``.
    """
    b, dp1 = coeffs.shape
    d = dp1 - 1
    monic = coeffs / coeffs[:, -1:]
    deriv = monic[:, 1:] * np.arange(1, dp1)
    absc = np.abs(monic)

    angles = 2.0 * np.pi * np.arange(d) / d + 0.6180339887498949
    z = _cauchy_radius_reference(absc)[:, None] * np.exp(1j * angles)[None, :]

    # a row that converges takes its polishing step and leaves the working
    # arrays; each row's iterates are the ones it would get alone
    active = np.arange(b)
    zz = z
    idx = np.arange(d)
    for _ in range(max_iter):
        pv = _horner_reference(monic, zz)
        sc = _horner_reference(absc, np.abs(zz))
        row_ok = (np.abs(pv) <= tol * sc).all(axis=1)
        diff = zz[:, :, None] - zz[:, None, :]
        diff[:, idx, idx] = np.inf
        # p' = 0 makes w, and so denom, not finite: one mask covers it
        with np.errstate(divide="ignore", invalid="ignore"):
            w = pv / _horner_reference(deriv, zz)
            s = np.reciprocal(diff, out=diff).sum(axis=2)
            denom = 1.0 - w * s
            bad = (denom == 0) | ~np.isfinite(denom)
            step = np.where(bad, 0.0, w / denom)
        if bad.any():
            # collision or critical point: nudge deterministically, with an
            # index-dependent size so coincident iterates separate; a row
            # taking its last (polishing) step is never nudged
            nudge = (1e-3 + 1e-3j) * (1.0 + np.abs(zz)) * (1.0 + idx)[None, :]
            step = np.where(bad & ~row_ok[:, None], nudge, step)
        zz = zz - step
        if row_ok.any():
            z[active[row_ok]] = zz[row_ok]
            if row_ok.all():
                return z
            keep = ~row_ok
            active, monic, absc, deriv = active[keep], monic[keep], absc[keep], deriv[keep]
            zz = zz[keep]
    worst, row = np.inf, 0
    if max_iter > 0:
        # the report reads the last pass's residuals of the rows it left active
        pv, sc = pv[~row_ok], sc[~row_ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (np.abs(pv) / np.where(sc > 0, sc, 1.0)).max(axis=1)
        worst, row = float(rel.max()), int(active[np.argmax(rel)])
    raise ConvergenceError(
        f"root iteration did not converge within {max_iter} iterations "
        f"(worst residual {worst:.3e}, tol {tol:.1e})",
        worst_residual=worst,
        row=row,
    )


# ---------------------------------------------------------- reference ranking


def tags(cloud: SpectrumCloud) -> list[str]:
    """The tag of each point, in cloud order."""
    return np.array(cloud.table(), dtype=object)[cloud.codes()].tolist()


def expanded(cloud: SpectrumCloud) -> SpectrumCloud:
    """The cloud with each entry repeated by its count, copies adjacent: one
    entry per point, every count 1."""
    counts = cloud.counts()
    return SpectrumCloud(
        np.repeat(cloud.values(), counts), np.repeat(cloud.codes(), counts), cloud.table()
    )


def lexsorted(cloud: SpectrumCloud) -> SpectrumCloud:
    """The cloud in np.lexsort order by (re, im, code), ties in cloud order."""
    v = cloud.values()
    order = np.lexsort((cloud.codes(), v.imag, v.real))
    return SpectrumCloud(v[order], cloud.codes()[order], cloud.table())


def number_fields_reference(fmt: str, *columns: np.ndarray) -> list:
    """Sign and magnitude fields of each column, for `_row_blocks`.

    The CLI's number tables as they were built before the cloud's own
    ranking served them, from a second np.unique over the sorted values.

    Each distinct magnitude over all columns is formatted once.  The sign
    is a field of its own: '-' where the sign bit is set, except on nan,
    which Python prints as 'nan' whatever its sign; so -0.0 prints '-0'.
    """
    mags, inverse = np.unique(np.abs(np.concatenate(columns)), return_inverse=True)
    table = cli_io._lines_table((f"{fmt}\n" * mags.size) % tuple(mags.tolist()))
    fields = []
    for x, index in zip(columns, np.split(inverse, len(columns))):
        neg = np.signbit(x) & ~np.isnan(x)
        fields += [(cli_io._SIGN, neg.view(np.uint8)), (table, index)]
    return fields


# ---------------------------------------------------------- CSV and SVG text


def csv_text_by_point(cloud: SpectrumCloud) -> str:
    v = cloud.values()
    return "re,im,tag\n" + "".join(
        f"{re:.17g},{im:.17g},{tag}\n"
        for re, im, tag in zip(v.real.tolist(), v.imag.tolist(), tags(cloud))
    )


def svg_circles_by_point(cloud: SpectrumCloud) -> str:
    v = cloud.values()
    return "".join(
        f'<circle cx="{re:.6g}" cy="{-im:.6g}" r="0.005" fill="black" fill-opacity="0.6"/>\n'
        for re, im in zip(v.real.tolist(), v.imag.tolist())
    )


def _points_json(cloud: SpectrumCloud) -> list[dict]:
    v = cloud.values()
    rows = zip(v.real.tolist(), v.imag.tolist(), tags(cloud))
    return [{"im": im, "re": re, "tag": t} for re, im, t in rows]


def json_text_by_point(cloud: SpectrumCloud, params: dict) -> str:
    obj = {
        "params": params,
        "points": _points_json(cloud),
        "warnings": [],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def embed_json_text(result, params: dict) -> str:
    """The embed result's JSON: one dict per target, excluded angle and
    witness, encoded by ``json.dumps(sort_keys=True, indent=2)``."""
    v = result.targets.values()
    obj = {
        "excluded": [
            {
                "j": j,
                "residuals": res.tolist(),
                "values": [{"im": z.imag, "re": z.real} for z in values.tolist()],
            }
            for j, values, res in zip(
                result.excluded_angles, result.excluded_values, result.excluded_residuals
            )
        ],
        "l": result.l.to_text(),
        "m_effective": result.m,
        "n": result.n,
        "params": params,
        "residuals": list(result.residuals),
        "targets": [
            {"im": im, "re": re, "tag": t}
            for re, im, t in zip(v.real.tolist(), v.imag.tolist(), tags(result.targets))
        ],
        "verified": result.verified,
        "warnings": [],
        "witnesses": [
            {"first_component": 0.0, "residual": residual, "target_index": i}
            for i, residual in enumerate(result.witness_residuals)
        ]
        if params["witness"]
        else None,
        "worst_residual": result.worst_residual,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read_cloud_csv(path: str) -> SpectrumCloud:
    values, tags = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "re,im,tag":
            raise ParseError(f"unexpected CSV header {header!r}", position=0)
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            re_s, im_s, tag = line.split(",", 2)
            values.append(complex(float(re_s), float(im_s)))
            tags.append(tag)
    table, codes = np.unique(np.array(tags, dtype=str), return_inverse=True)
    return SpectrumCloud(values, codes, table.tolist())
