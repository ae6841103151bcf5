"""Polynomial containers and the simultaneous root iteration.

Root finding uses Aberth-Ehrlich: all roots are iterated together from a
deterministic starting circle, with no deflation, so no general dense
eigensolver is needed anywhere in the package.  Characteristic and symbol
polynomials arrive as exact integer polynomials (arbitrary precision) and
become floats only here.

Residual convention: a root r of p is accepted when

    |p(r)| <= tol * scale(r),      scale(r) = sum_i |c_i| |r|^i,

which is the backward-stable yardstick for Horner evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["IntPolynomial", "roots", "roots_many"]

DEFAULT_TOL = 1e-10
# The start circle has radius 1 + max|c|, which grows geometrically with the
# degree of a symbol polynomial, and most steps go into coming in from it:
# the degree-34 all-minus word needs 263.
DEFAULT_MAX_ITER = 400

# Irrational angular offset for the starting circle; breaks the symmetry of
# polynomials whose root sets are invariant under rotations by 2 pi / d.
_ANGLE_OFFSET = 0.6180339887498949


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


def _aberth_batch(
    coeffs: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, float]:
    """Aberth-Ehrlich on a stack of same-degree polynomials.

    coeffs: (B, d+1) complex, ascending, leading column nonzero, d >= 2.
    Returns (roots (B, d), worst residual seen on the last iteration).
    """
    b, dp1 = coeffs.shape
    d = dp1 - 1
    monic = coeffs / coeffs[:, -1:]
    deriv = monic[:, 1:] * np.arange(1, dp1)
    absc = np.abs(monic)

    radius = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
    angles = 2.0 * np.pi * np.arange(d) / d + _ANGLE_OFFSET
    z = radius[:, None] * np.exp(1j * angles)[None, :]

    # a row that converges is never touched again, so it leaves the working
    # arrays; each row's iterates are the ones it would get alone
    active = np.arange(b)
    zz = z
    idx = np.arange(d)
    worst = np.inf
    for _ in range(max_iter):
        pv = _horner_batch(monic, zz)
        sc = _horner_batch(absc, np.abs(zz).astype(complex)).real
        row_ok = (np.abs(pv) <= tol * sc).all(axis=1)
        if row_ok.any():
            z[active[row_ok]] = zz[row_ok]
            if row_ok.all():
                return z, 0.0
            keep = ~row_ok
            active, monic, absc, deriv = active[keep], monic[keep], absc[keep], deriv[keep]
            zz, pv, sc = zz[keep], pv[keep], sc[keep]
        dv = _horner_batch(deriv, zz)
        bad_dv = dv == 0
        if bad_dv.any():
            dv = np.where(bad_dv, 1.0, dv)
        w = pv / dv
        diff = zz[:, :, None] - zz[:, None, :]
        diff[:, idx, idx] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            recip = 1.0 / diff
        recip[:, idx, idx] = 0.0
        s = recip.sum(axis=2)
        denom = 1.0 - w * s
        bad = bad_dv | (denom == 0) | ~np.isfinite(denom)
        denom = np.where(bad, 1.0, denom)
        step = w / denom
        if bad.any():
            # collision or critical point: nudge deterministically, with an
            # index-dependent size so coincident iterates separate
            nudge = (1e-3 + 1e-3j) * (1.0 + np.abs(zz)) * (1.0 + idx)[None, :]
            step = np.where(bad, nudge, step)
        zz = zz - step
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(pv) / np.where(sc > 0, sc, 1.0)
        worst = float(rel.max())
    raise ConvergenceError(
        f"root iteration did not converge within {max_iter} iterations "
        f"(worst residual {worst:.3e}, tol {tol:.1e})",
        worst_residual=worst,
    )


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
    input row, in input order.
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

    results: list[np.ndarray | None] = [None] * len(prepared)
    groups: dict[int, list[int]] = {}
    for i, (q, core) in enumerate(prepared):
        deg = len(core) - 1
        if deg == 0:
            results[i] = np.zeros(q, dtype=complex)
        elif deg == 1:
            r = -prepared[i][1][0] / prepared[i][1][1]
            results[i] = np.concatenate([np.zeros(q, dtype=complex), [r]])
        else:
            groups.setdefault(deg, []).append(i)

    for deg, idxs in groups.items():
        stack = np.array([prepared[i][1] for i in idxs])
        found, _ = _aberth_batch(stack, tol, max_iter)
        for row_pos, i in enumerate(idxs):
            q = prepared[i][0]
            results[i] = np.concatenate([np.zeros(q, dtype=complex), found[row_pos]])
    return results  # type: ignore[return-value]
