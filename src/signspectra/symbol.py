"""Symbol calculus for periodic sign operators.

A period-m sign pattern k determines a family of m x m matrices a(phi):
zero diagonal, ones on the superdiagonal, k_1..k_{m-1} on the subdiagonal,
and two phase-carrying corners, (1,m) += k_m e^{i phi} and (m,1) += e^{-i phi}.
The operator spectrum is the union of spec(a(phi)) over phi.

Expanding det(a(phi) - lambda I) along the two corners collapses it onto a
single monic integer polynomial p of degree m:

    det(a(phi) - lambda I) = (-1)^m (p(lambda) - e^{i phi} K - e^{-i phi}),
    p = (-1)^m (D(k_1..k_{m-1}) - k_m E(k_2..k_{m-2})),

K = product of the k_j, D the continuant of the m x m tridiagonal part and
E that of its interior (rows and columns 2..m-1).  Both continuants come
from the integer recursion in the finite module, so p is exact at every
period.  When the -1 count of k is even (K = +1) the right side becomes
(-1)^m (p(lambda) - 2 cos phi), so the operator spectrum is exactly the
p-preimage of the segment [-2, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import SpectrumCloud
from .finite import _continuant
from .polyroot import DEFAULT_TOL, IntPolynomial, roots_many
from .signmodel import SignVector, ensure_even_parity

__all__ = [
    "SymbolPolynomial",
    "symbol_array",
    "symbol_poly",
    "preimages",
    "periodic_spectrum",
    "two_cos_pi",
]


def two_cos_pi(numer: int, denom: int) -> float:
    """2 cos(pi numer/denom), exact at the integer-valued points.

    Plain cos(pi/2) is 6.1e-17 in floats, which would push targets that are
    exactly 0 (or +-1, +-2) slightly off and ruin scale-normalized residuals
    at roots of the characteristic polynomial near zero.  Folding the angle
    exactly over the integers and special-casing the rational points with
    integer cosine keeps those targets exact; mirror angles (numer and
    2*denom - numer) also become bit-identical.
    """
    if denom <= 0:
        raise ValueError("denominator must be positive")
    s = numer % (2 * denom)
    if s > denom:
        s = 2 * denom - s
    sign = 1.0
    if 2 * s > denom:
        s = denom - s
        sign = -1.0
    if s == 0:
        return sign * 2.0
    if 2 * s == denom:
        return 0.0
    if 3 * s == denom:
        return sign * 1.0
    return sign * 2.0 * math.cos(math.pi * s / denom)


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


@dataclass(frozen=True)
class SymbolPolynomial:
    """Monic integer polynomial p of degree m plus the sign product K."""

    p: IntPolynomial
    k_product: int


def symbol_poly(k: SignVector) -> SymbolPolynomial:
    """Exact p by the corner expansion (-1)^m (D(k_1..k_{m-1}) - k_m E(k_2..k_{m-2})).

    D has size m and E size m-2; the continuant's seeds (E = 1 at m = 2,
    E = 0 at m = 1) make the formula hold where the corners overlap the
    off-diagonals.  Every step is integer arithmetic.
    """
    m = len(k)
    signs = k.signs
    corner = _continuant(signs, m) - _continuant(signs[1:], m - 2).scaled(signs[-1])
    p = corner.scaled(-1 if m % 2 else 1)
    return SymbolPolynomial(p=p, k_product=k.product())


def preimages(p: IntPolynomial, targets, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Roots of p(x) - t for each target t, one array per target, in order."""
    rows = np.tile(p.as_array(), (len(targets), 1))
    rows[:, 0] -= np.asarray(targets)
    return roots_many(list(rows), tol)


def periodic_spectrum(
    k: SignVector,
    samples: int,
    tol: float = DEFAULT_TOL,
    p: IntPolynomial | None = None,
) -> SpectrumCloud:
    """Sampled operator spectrum as the p-preimage of [-2, 2].

    The pattern is parity-doubled first when its -1 count is odd, so the
    segment form applies.  Angles are uniform, phi_s = pi s/(samples-1), and
    the targets 2 cos phi_s are Chebyshev-distributed in [-2, 2], which
    resolves the arc endpoints well.  Each point is tagged with its angle.
    A caller that already holds symbol_poly of the doubled pattern passes
    its p, and it is not built again.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    keff = ensure_even_parity(k)
    meff = len(keff)
    if p is None:
        p = symbol_poly(keff).p
    targets = [two_cos_pi(s, samples - 1) for s in range(samples)]
    solved = preimages(p, targets, tol)
    phis = np.pi * np.arange(samples) / (samples - 1)
    parts = [
        SpectrumCloud.from_values(vals, f"per:m={meff}:phi={phi:.3f}")
        for vals, phi in zip(solved, phis)
    ]
    return SpectrumCloud().merged(*parts)
