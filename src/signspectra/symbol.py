"""Symbol calculus for periodic sign operators.

A period-m sign pattern k determines a family of m x m matrices a(phi):
zero diagonal, ones on the superdiagonal, k_1..k_{m-1} on the subdiagonal,
and two phase-carrying corners, (1,m) += k_m e^{i phi} and (m,1) += e^{-i phi}.
The operator spectrum is the union of spec(a(phi)) over phi.

Expanding det(a(phi) - lambda I) along the two corners collapses it onto a
single monic integer polynomial p of degree m:

    det(a(phi) - lambda I) = (-1)^m (p(lambda) - e^{i phi} K - e^{-i phi}),
    p = (-1)^m (D(k_1..k_{m-1}) - k_m E(k_2..k_{m-2})),

K = k.product(), the product of the k_j; D is the continuant of the m x m
tridiagonal part and E that of its interior (rows and columns 2..m-1).
symbol_poly returns p as one integer row per pattern, for a stack of
patterns at once.  D and E are rows of charpoly_finite, whose integer
recursion switches to Python ints past int64, so p is exact at every
period.  When the -1 count of k is even (K = +1) the right side
becomes (-1)^m (p(lambda) - 2 cos phi), so the operator spectrum is
exactly the p-preimage of the segment [-2, 2].
"""

from __future__ import annotations

import math

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError, ConvergenceError
from .finite import charpoly_finite
from .polyroot import DEFAULT_TOL, roots_many
from .signmodel import SignVector, ensure_even_parity

__all__ = [
    "symbol_poly",
    "preimages",
    "periodic_spectrum",
    "two_cos_pi",
]

# angle samples per periodic spectrum; the targets are a Python list
SAMPLES_CAP = 1 << 16


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


def symbol_poly(signs) -> np.ndarray:
    """Exact p by the corner expansion (-1)^m (D(k_1..k_{m-1}) - k_m E(k_2..k_{m-2})).

    ``signs`` is a SignVector or a +-1 array of shape (..., m); the result
    is one ascending coefficient row per pattern, shape (..., m+1), int64 or
    (past int64, as in charpoly_finite) Python ints.  D = charpoly_finite(
    k_1..k_{m-1}) has size m and E = charpoly_finite(k_2..k_{m-2}) size
    m-2; the continuant's seeds (E = 1 at m = 2, E = 0 at m = 1) make the
    formula hold where the corners overlap the off-diagonals.
    """
    s = np.asarray(signs.signs if isinstance(signs, SignVector) else signs, dtype=np.int64)
    m = s.shape[-1]
    p = charpoly_finite(s[..., :-1])
    if m > 2:
        p[..., : m - 1] -= s[..., -1:] * charpoly_finite(s[..., 1:-2])
    elif m == 2:
        p[..., 0] -= s[..., -1]
    return -p if m % 2 else p


def preimages(p, targets, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Roots of p(x) - t for each row p and target t, as one complex array.

    ``p`` is one ascending coefficient row or a stack of R rows of one
    length w; with T targets the result has shape (R T, w - 1), and row
    r T + t holds the roots for row r and target t.
    """
    c = np.asarray(p, dtype=complex)
    rows = np.repeat(c.reshape(-1, 1, c.shape[-1]), len(targets), axis=1)
    rows[..., 0] -= np.asarray(targets)
    return roots_many(rows.reshape(-1, c.shape[-1]), tol)


def periodic_spectrum(k, samples: int, tol: float = DEFAULT_TOL) -> SpectrumCloud:
    """Sampled operator spectrum as the p-preimage of [-2, 2].

    ``k`` is a SignVector, parity-doubled first when its -1 count is odd so
    the segment form applies, or a stack of +-1 patterns of one length and
    even parity, whose clouds are concatenated in stack order.  Angles are
    uniform, phi_s = pi s/(samples-1), and the targets 2 cos phi_s are
    Chebyshev-distributed in [-2, 2], which resolves the arc endpoints well.
    Each point is tagged with its angle.  A count above SAMPLES_CAP, an
    entry other than +-1 and a period of 0 are refused before any solve.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if samples > SAMPLES_CAP:
        raise CapExceededError(f"{samples} angle samples above cap {SAMPLES_CAP}")
    k = np.asarray(ensure_even_parity(k).signs if isinstance(k, SignVector) else k)
    bad = np.flatnonzero((np.abs(np.atleast_2d(k)) != 1).any(axis=-1) | (k.shape[-1] == 0))
    if bad.size:
        raise ValueError(f"row {bad[0]}: a pattern needs period at least 1 and entries +-1")
    if (np.prod(k, axis=-1) != 1).any():
        raise ValueError("a stack of patterns needs even parity")
    targets = [two_cos_pi(s, samples - 1) for s in range(samples)]
    try:
        solved = preimages(symbol_poly(k), targets, tol)
    except ConvergenceError as exc:
        r, s = divmod(exc.row, samples)
        word = "".join("-" if x < 0 else "+" for x in np.atleast_2d(k)[r])
        raise exc.at(f"periodic spectrum, period {len(word)}, pattern {word}, angle {s}") from None
    phis = np.pi * np.arange(samples) / (samples - 1)
    tags = [f"per:m={k.shape[-1]}:phi={phi:.3f}" for phi in phis]
    return SpectrumCloud.from_values(solved.reshape(-1, samples, solved.shape[1]), tags)
