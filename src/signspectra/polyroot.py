"""Polynomial containers and the simultaneous root iteration.

Root finding uses Aberth-Ehrlich: all roots are iterated together, with no
deflation, so no general dense eigensolver is needed anywhere in the
package.  Characteristic and symbol polynomials arrive as exact integer
polynomials (arbitrary precision) and become floats only here.

Start: each row starts on a circle of its Cauchy radius, the positive root
r of r^d = sum_{i<d} |c_i| r^i of the monic row.  Every root lies in that
disk and it is far tighter than 1 + max|c|, which grows geometrically with
the period of a symbol polynomial (Bini, "Numerical computation of
polynomial zeros by means of Aberth's method", Numer. Algorithms 1996).

Residual convention: a root r of p is accepted when

    |p(r)| <= tol * scale(r),      scale(r) = sum_i |c_i| |r|^i,

which is the backward-stable yardstick for Horner evaluation.  A row whose
roots all pass takes one more Aberth step (without the collision nudge)
before it is returned, which brings simple roots to the rounding floor.

Repeated roots: Aberth delivers a j-fold root only to about tol^(1/j).  So
every row with exact integer coefficients is screened with inclusion disks
around its computed roots; disjoint disks prove the roots simple.  A row
whose disks overlap gets an exact squarefree split over the integers
(Yun's algorithm on gcd(D, D')), and when D is not squarefree each factor
is solved on its own and its roots repeated by their multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["IntPolynomial", "roots", "roots_many"]

DEFAULT_TOL = 1e-10
# From the Cauchy radius the c10 rows need at most 118 steps, period-64 and
# period-68 symbol rows at most 43, and the enumerate (n <= 14) and period
# <= 8 union rows at most 21; 200 leaves room above the hardest of them.
DEFAULT_MAX_ITER = 200

# Irrational angular offset for the starting circle; breaks the symmetry of
# polynomials whose root sets are invariant under rotations by 2 pi / d.
_ANGLE_OFFSET = 0.6180339887498949

# Newton steps toward the Cauchy radius; it only places the start circle
_RADIUS_STEPS = 6

# integral rows are those whose coefficients float64 holds exactly
_EXACT_INT = 2.0**53


def _trim(coeffs: tuple) -> tuple:
    i = len(coeffs)
    while i > 1 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer coefficients, ascending order, arbitrary precision."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        trimmed = _trim(tuple(int(c) for c in self.coeffs))
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scaled(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """(q, r) with self = q * other + r and deg r < deg other, over the integers.

        Always possible when the leading coefficient of other is +-1, and
        whenever other divides self exactly; raises ValueError when a
        quotient coefficient would not be an integer.
        """
        b = other.coeffs
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db, lead = len(b) - 1, b[-1]
        r = list(self.coeffs)
        q = [0] * max(len(r) - db, 1)
        for k in range(len(r) - 1 - db, -1, -1):
            t, rest = divmod(r[k + db], lead)
            if rest:
                raise ValueError("quotient is not an integer polynomial")
            q[k] = t
            for j, c in enumerate(b):
                r[k + j] -= t * c
        return IntPolynomial(tuple(q)), IntPolynomial(tuple(r[:db]) or (0,))

    def pseudo_divmod(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """(q, r) with lc(other)^e * self = q * other + r, e = deg self - deg other + 1.

        No division takes place, so this works for every nonzero other; when
        deg self < deg other it returns (0, self).
        """
        b = other.coeffs
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db, lead = len(b) - 1, b[-1]
        r = list(self.coeffs)
        q = [0] * max(len(r) - db, 1)
        for k in range(len(r) - 1 - db, -1, -1):
            t = r[k + db]
            q = [lead * c for c in q]
            q[k] += t
            r = [lead * c for c in r]
            for j, c in enumerate(b):
                r[k + j] -= t * c
        return IntPolynomial(tuple(q)), IntPolynomial(tuple(r[:db]) or (0,))

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPolynomial":
        """self divided by its content, with a positive leading coefficient."""
        c = self.content()
        if c == 0:
            return self
        c = c if self.coeffs[-1] > 0 else -c
        return IntPolynomial(tuple(x // c for x in self.coeffs))

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """Greatest common divisor over the integers, leading coefficient positive.

        Euclid on primitive pseudo-remainders keeps the coefficients small;
        the gcd of the contents multiplies the result.
        """
        c = math.gcd(self.content(), other.content())
        a, b = self.primitive(), other.primitive()
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero():
            _, r = a.pseudo_divmod(b)
            a, b = b, r.primitive()
        return a.scaled(c)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0,))

    def squarefree(self) -> list[tuple["IntPolynomial", int]]:
        """Yun's squarefree factorization: [(a_i, i)] with a_i of positive degree.

        The a_i are primitive, squarefree and pairwise coprime, and the
        primitive part of self is +- prod a_i^i.  Every division below is
        exact, because each divisor is primitive and divides over the
        rationals (Gauss's lemma).
        """
        f = self.primitive()
        if f.degree < 1:
            return []
        fp = f.derivative()
        g = f.gcd(fp)
        b, _ = divmod(f, g)
        c, _ = divmod(fp, g)
        d = c - b.derivative()
        out = []
        i = 1
        while b.degree > 0:
            a = b.gcd(d)
            b, _ = divmod(b, a)
            c, _ = divmod(d, a)
            d = c - b.derivative()
            if a.degree > 0:
                out.append((a, i))
            i += 1
        return out

    def scaled(self, s: int) -> "IntPolynomial":
        return IntPolynomial(tuple(s * c for c in self.coeffs))

    def times_x(self) -> "IntPolynomial":
        return IntPolynomial((0,) + self.coeffs)

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


def _horner_batch(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    # c: (B, D+1), z: (B, d); vectorized over both axes
    acc = np.repeat(c[:, -1][:, None], z.shape[1], axis=1)
    for i in range(c.shape[1] - 2, -1, -1):
        acc = acc * z + c[:, i][:, None]
    return acc


def _cauchy_radius(absc: np.ndarray) -> np.ndarray:
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
    for _ in range(_RADIUS_STEPS):
        t = (base / r[:, None]) ** e
        r = r * (1.0 + (t.sum(axis=1) - 1.0) / (t @ e))
    return r


def _aberth_batch(coeffs: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Aberth-Ehrlich on a stack of same-degree polynomials.

    coeffs: (B, d+1) complex, ascending, leading column nonzero, nonzero
    constant column, d >= 2.  Returns the roots, (B, d).  On failure the
    ConvergenceError carries the batch position of the worst row in ``row``.
    """
    b, dp1 = coeffs.shape
    d = dp1 - 1
    monic = coeffs / coeffs[:, -1:]
    deriv = monic[:, 1:] * np.arange(1, dp1)
    absc = np.abs(monic)

    angles = 2.0 * np.pi * np.arange(d) / d + _ANGLE_OFFSET
    z = _cauchy_radius(absc)[:, None] * np.exp(1j * angles)[None, :]

    # a row that converges takes its polishing step and leaves the working
    # arrays; each row's iterates are the ones it would get alone
    active = np.arange(b)
    zz = z
    idx = np.arange(d)
    worst = np.inf
    for _ in range(max_iter):
        pv = _horner_batch(monic, zz)
        sc = _horner_batch(absc, np.abs(zz))
        row_ok = (np.abs(pv) <= tol * sc).all(axis=1)
        dv = _horner_batch(deriv, zz)
        bad_dv = dv == 0
        if bad_dv.any():
            dv = np.where(bad_dv, 1.0, dv)
        w = pv / dv
        diff = zz[:, :, None] - zz[:, None, :]
        diff[:, idx, idx] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.reciprocal(diff, out=diff).sum(axis=2)
        denom = 1.0 - w * s
        bad = bad_dv | (denom == 0) | ~np.isfinite(denom)
        step = np.where(bad, 0.0, w / np.where(bad, 1.0, denom))
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
            zz, pv, sc = zz[keep], pv[keep], sc[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (np.abs(pv) / np.where(sc > 0, sc, 1.0)).max(axis=1)
        worst = float(rel.max())
    row = int(active[np.argmax(rel)]) if max_iter > 0 else 0
    raise ConvergenceError(
        f"root iteration did not converge within {max_iter} iterations "
        f"(worst residual {worst:.3e}, tol {tol:.1e})",
        worst_residual=worst,
        row=row,
    )


def _overlapping_disks(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows whose inclusion disks around the computed roots are not disjoint.

    For monic p of degree d and distinct z_i, the disks of radius
    d |p(z_i)| / prod_{j != i} |z_i - z_j| around the z_i cover every root,
    and a connected union of k of them holds exactly k roots (the inclusion
    theorem behind MPSolve's cluster analysis).  Disjoint disks therefore
    prove every root simple.  |p(z_i)| carries a bound on its rounding
    error, and the product is taken as a sum of logarithms, so no degree
    overflows; coincident z_i give an infinite radius.
    """
    d = z.shape[1]
    monic = coeffs / coeffs[:, -1:]
    rounding = 4.0 * d * np.finfo(float).eps * _horner_batch(np.abs(monic), np.abs(z))
    value = np.abs(_horner_batch(monic, z)) + rounding
    dist = np.abs(z[:, :, None] - z[:, None, :])
    idx = np.arange(d)
    dist[:, idx, idx] = 1.0
    with np.errstate(divide="ignore", over="ignore"):
        radius = d * np.exp(np.log(value) - np.log(dist).sum(axis=2))
    dist[:, idx, idx] = np.inf
    return (dist <= radius[:, :, None] + radius[:, None, :]).any(axis=(1, 2))


def _split_zero_roots(c: np.ndarray) -> tuple[int, np.ndarray]:
    q = 0
    while q < len(c) - 1 and c[q] == 0:
        q += 1
    return q, c[q:]


def roots(
    p: IntPolynomial,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """All complex roots of p, with multiplicity, degree(p) of them.

    Only ``p.coeffs`` (ascending) is read, so any polynomial container with
    that field works.  Exact zero constant terms are peeled off first (those
    roots are exact), then the remaining factor goes through the batch
    iteration.
    """
    out = roots_many([np.asarray(p.coeffs, dtype=complex)], tol, max_iter)
    return out[0]


def roots_many(
    coeff_rows: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[np.ndarray]:
    """Roots for many polynomials, grouped and batched by shape.

    Rows may have different degrees; each row is ascending complex
    coefficients with nonzero leading entry.  Returns one root array per
    input row, in input order.  A row of integers below 2^53 in modulus
    whose computed roots are not provably simple is split into squarefree
    factors, so a repeated root comes back repeated.
    """
    prepared = []
    for i, row in enumerate(coeff_rows):
        c = np.asarray(row, dtype=complex)
        if c.ndim != 1 or len(c) < 2:
            raise ValueError(f"row {i}: need degree >= 1")
        if c[-1] == 0:
            raise ValueError(f"row {i}: leading coefficient is zero")
        q, core = _split_zero_roots(c)
        prepared.append((q, core))

    cores: list[np.ndarray | None] = [None] * len(prepared)
    groups: dict[int, list[int]] = {}
    for i, (q, core) in enumerate(prepared):
        deg = len(core) - 1
        if deg == 0:
            cores[i] = np.zeros(0, dtype=complex)
        elif deg == 1:
            cores[i] = np.array([-core[0] / core[1]])
        else:
            groups.setdefault(deg, []).append(i)

    splits: dict[int, list[tuple[IntPolynomial, int]]] = {}
    for deg, idxs in groups.items():
        stack = np.array([prepared[i][1] for i in idxs])
        try:
            found = _aberth_batch(stack, tol, max_iter)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"degree-{deg} group of {len(idxs)} rows, input row {idxs[exc.row]}: {exc}",
                worst_residual=exc.worst_residual,
                row=idxs[exc.row],
            ) from None
        for row_pos, i in enumerate(idxs):
            cores[i] = found[row_pos]
        real = stack.real
        integral = (
            (stack.imag == 0).all(axis=1)
            & (real == np.round(real)).all(axis=1)
            & (np.abs(real) < _EXACT_INT).all(axis=1)
        )
        suspect = np.flatnonzero(integral)
        suspect = suspect[_overlapping_disks(stack[suspect], found[suspect])]
        for row_pos in suspect:
            parts = IntPolynomial(tuple(int(c) for c in real[row_pos])).squarefree()
            if any(m > 1 for _, m in parts):
                splits[idxs[row_pos]] = parts

    if splits:
        # one solve for the squarefree factors of every split row
        factor_rows = [f.as_array() for parts in splits.values() for f, _ in parts]
        solved = iter(roots_many(factor_rows, tol, max_iter))
        for i, parts in splits.items():
            cores[i] = np.concatenate([np.repeat(next(solved), m) for _, m in parts])

    return [
        np.concatenate([np.zeros(q, dtype=complex), core])
        for (q, _), core in zip(prepared, cores)
    ]
