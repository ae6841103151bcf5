"""Polynomial containers and the simultaneous root iteration.

Root finding uses Aberth-Ehrlich: all roots are iterated together, with no
deflation, so no general dense eigensolver is needed anywhere in the
package.  Characteristic and symbol polynomials are built exactly over the
integers (int64 rows, or Python ints past int64) and become floats only
here.

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
Each pass works in place in arrays allocated once per call, keeping every
operand order: numpy's fused complex multiply is not commutative bit for
bit, so w * s is np.multiply(w, s, out=s), never s *= w.

Repeated roots: Aberth delivers a j-fold root only to about tol^(1/j).  So
every row with exact integer coefficients is screened with inclusion disks
around its computed roots; disjoint disks prove the roots simple.  A row
whose disks overlap gets an exact squarefree split over the integers
(Yun's algorithm on gcd(D, D')), and when D is not squarefree each factor
is solved on its own and its roots repeated by their multiplicity.

Even rows: a sign tridiagonal matrix has a zero diagonal, so every finite
charpoly is x^(N mod 2) q(x^2), and so is every symbol row p - t at even
period.  After the exact zero roots are peeled off, a row whose odd-index
coefficients are all exactly zero is replaced by q, of half the degree in
mu = x^2; q is batched, screened and split like any other row, and the
row's roots are +-sqrt(mu), so they come in exact +- pairs.  This loses
nothing: a root mu with forward error e gives lambda = sqrt(mu) an error
e / (2 |lambda|) = eps / (2 |lambda| |q'(mu)|) = eps / |p'(lambda)|, the
same as solving p directly; and since q(0) != 0, a squarefree q has
only simple roots lambda, so the disk screen and the split stay exact
when applied to q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = ["IntPolynomial", "roots_many"]

DEFAULT_TOL = 1e-10
# From the Cauchy radius the c10 rows need at most 118 steps, period-64 and
# period-68 symbol rows at most 89 (the constant words; +-++ x 16 takes 71),
# and the enumerate (n <= 14) and period <= 8 union rows at most 21; 200
# leaves room above all of them.  The period-136 rows of +-++ x 17 (doubled)
# take 188, and those of +-++ x 19 (period 152) do not converge within 200.
DEFAULT_MAX_ITER = 200

# Irrational angular offset for the starting circle; breaks the symmetry of
# polynomials whose root sets are invariant under rotations by 2 pi / d.
_ANGLE_OFFSET = 0.6180339887498949

# Newton steps toward the Cauchy radius; it only places the start circle
_RADIUS_STEPS = 6

# integral rows are those whose coefficients float64 holds exactly
_EXACT_INT = 2.0**53

# bytes of the (rows, d, d) complex pairwise array of one Aberth solve; a
# degree group is solved and screened in chunks of rows that fit, twice the
# largest group a shipped command builds (sigma_16: 16.1 MiB)
_PAIRS_BYTES = 32 << 20


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
        quotient coefficient would not be an integer.  This is pseudo_divmod
        divided through by lc(other)^max(e, 0); when q divides, so does r.
        """
        q, r = self.pseudo_divmod(other)
        s = other.coeffs[-1] ** max(self.degree - other.degree + 1, 0)
        if any(c % s for c in q.coeffs):
            raise ValueError("quotient is not an integer polynomial")
        return tuple(IntPolynomial(tuple(c // s for c in p.coeffs)) for p in (q, r))

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


def _horner_batch(c: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # c: (B, D+1), z: (B, d), D >= 1; vectorized over both axes, accumulated in out
    acc = np.add(np.multiply(c[:, -1, None], z, out=out), c[:, -2, None], out=out)
    for i in range(c.shape[1] - 3, -1, -1):
        acc *= z
        acc += c[:, i, None]
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
        r = r * (1.0 + (t.sum(axis=1) - 1.0) / (t * e).sum(axis=1))
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

    # a row that converges takes its polishing step and leaves the work arrays,
    # whose first n rows are the active ones; its iterates are those it gets alone
    active = np.arange(b)
    work = np.repeat(z[None], 4, axis=0)  # iterates; p; p', then w; sums, then the step
    moduli, pairs = np.empty((2, b, d)), np.empty((b, d, d), dtype=complex)  # |z|, scale; z_i - z_j
    (zz, pv, w, s), (az, sc), diff = work, moduli, pairs
    for _ in range(max_iter):
        pv = _horner_batch(monic, zz, pv)
        sc = _horner_batch(absc, np.abs(zz, out=az), sc)
        row_ok = (np.abs(pv) <= tol * sc).all(axis=1)
        np.subtract(zz[:, :, None], zz[:, None, :], out=diff)
        diff.reshape(len(diff), -1)[:, :: d + 1] = np.inf
        # p' = 0 makes w, and so denom, not finite: one mask covers it
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.divide(pv, _horner_batch(deriv, zz, w), out=w)
            s = np.reciprocal(diff, out=diff).sum(axis=2, out=s)
            denom = np.subtract(1.0, np.multiply(w, s, out=s), out=s)
            bad = (denom == 0) | ~np.isfinite(denom)
            step = np.divide(w, denom, out=denom)
        if bad.any():
            # collision or critical point: nudge deterministically, with an
            # index-dependent size so coincident iterates separate; a row
            # taking its last (polishing) step is never nudged
            nudge = (1e-3 + 1e-3j) * (1.0 + az) * np.arange(1.0, d + 1)[None, :]
            np.copyto(step, np.where(row_ok[:, None], 0.0, nudge), where=bad)
        zz -= step
        if row_ok.any():
            z[active[row_ok]] = zz[row_ok]
            if row_ok.all():
                return z
            keep = ~row_ok
            active, monic, absc, deriv = active[keep], monic[keep], absc[keep], deriv[keep]
            n = active.size
            work[0, :n] = zz[keep]
            (zz, pv, w, s), (az, sc), diff = work[:, :n], moduli[:, :n], pairs[:n]
    worst, row = np.inf, 0
    if max_iter > 0:
        # the report reads the last pass's residuals of the rows it left active
        pv, sc = work[1, : row_ok.size][~row_ok], moduli[1, : row_ok.size][~row_ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (np.abs(pv) / np.where(sc > 0, sc, 1.0)).max(axis=1)
        worst, row = float(rel.max()), int(active[np.argmax(rel)])
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


def _place(out: np.ndarray, rows, halved: bool, core: np.ndarray) -> None:
    """Write core roots into the last columns of their rows; a halved core gives +-sqrt(mu)."""
    if halved:
        root = np.sqrt(core)
        core = np.concatenate([root, -root], axis=1)
    out[rows, out.shape[1] - core.shape[1] :] = core


def roots_many(
    coeff_rows: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Roots of many polynomials of one degree, one row of roots per row.

    ``coeff_rows`` is a 2-D array, one polynomial per row: ascending
    coefficients, leading column nonzero.  The result is a complex array of
    shape (rows, width - 1), row i holding the roots of row i, its exact
    zero roots first.  The zero-root peel, the evenness test and the output
    are array operations over all rows, which are batched by (core degree,
    halved).  An even row (after its zero roots) is solved in mu = x^2, and
    its nonzero roots are the square roots of the mu roots, then their
    negations.  A row of integers below 2^53 in modulus whose computed roots
    are not provably simple is split into squarefree factors, so a repeated
    root comes back repeated.  A group is solved in chunks of rows whose
    pairwise array fits _PAIRS_BYTES; a row's roots do not depend on its
    batch, so the chunking changes no bit.
    """
    c = np.asarray(coeff_rows, dtype=complex)
    if c.ndim != 2:
        raise ValueError(f"need a 2-D array of coefficient rows, got shape {c.shape}")
    if c.shape[1] < 2:
        raise ValueError("need degree >= 1")
    lead = c[:, -1] != 0
    if not lead.all():
        raise ValueError(f"row {np.argmin(lead)}: leading coefficient is zero")
    nonzero = c != 0
    # the core is what is left after the exact zero roots are peeled off
    core_len = c.shape[1] - nonzero.argmax(axis=1)
    # an even core is q(x^2), of odd length with its nonzero coefficients
    # all of one index parity: solve it in mu = x^2 at half the degree
    one_parity = ~(nonzero[:, ::2].any(axis=1) & nonzero[:, 1::2].any(axis=1))
    halved = one_parity & (core_len % 2 == 1)
    # key 2 deg + halved: a halved core of odd length L has degree L // 2
    keys = np.where(halved, core_len, 2 * core_len - 2)

    # right-aligned: a row's core roots fill its last columns
    out = np.zeros((len(c), c.shape[1] - 1), dtype=complex)
    splits: dict[int, list[tuple[IntPolynomial, int]]] = {}
    for key in dict.fromkeys(keys.tolist()):  # groups in order of first row
        deg, half = divmod(key, 2)
        if deg == 0:
            continue
        idxs = np.flatnonzero(keys == key)
        stack = c[idxs, c.shape[1] - (1 + half) * deg - 1 :: 1 + half]
        if deg == 1:
            _place(out, idxs, half, (-stack[:, 0] / stack[:, 1])[:, None])
            continue
        chunk = max(_PAIRS_BYTES // (16 * deg * deg), 1)
        for lo in range(0, len(idxs), chunk):
            rows, batch = idxs[lo : lo + chunk], stack[lo : lo + chunk]
            try:
                found = _aberth_batch(batch, tol, max_iter)
            except ConvergenceError as exc:
                i = int(rows[exc.row])
                group = f"degree-{deg} group"
                if half:
                    group += f" (solved in x^2, input degree {c.shape[1] - 1})"
                raise exc.at(f"{group} of {len(idxs)} rows, input row {i}", i) from None
            _place(out, rows, half, found)
            real = batch.real
            integral = (
                (batch.imag == 0).all(axis=1)
                & (real == real.round()).all(axis=1)
                & (np.abs(real) < _EXACT_INT).all(axis=1)
            )
            suspect = np.flatnonzero(integral)
            if suspect.size:
                suspect = suspect[_overlapping_disks(batch[suspect], found[suspect])]
            for row_pos in suspect.tolist():
                parts = IntPolynomial(tuple(int(x) for x in real[row_pos])).squarefree()
                if any(m > 1 for _, m in parts):
                    splits[int(rows[row_pos])] = parts

    if splits:
        # one solve for the squarefree factors of every split row, left-padded
        # to one width; the padding adds exact zero roots, which the peel
        # removes, and each factor's own roots are its last deg f
        factors = [f.coeffs for parts in splits.values() for f, _ in parts]
        owners = [i for i, parts in splits.items() for _ in parts]
        width = max(map(len, factors))
        padded = np.array([(0,) * (width - len(f)) + f for f in factors], dtype=complex)
        try:
            solved = iter(roots_many(padded, tol, max_iter))
        except ConvergenceError as exc:
            i = owners[exc.row]
            raise exc.at(f"squarefree factor of input row {i}", i) from None
        for i, parts in splits.items():
            core = np.concatenate([np.repeat(next(solved)[-f.degree :], m) for f, m in parts])
            _place(out, [i], halved[i], core[None])
    return out
