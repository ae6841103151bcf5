"""The constructive spectral embedding of periodic spectra into finite ones.

Arranging the symbol matrices a(xi_j) at the n-th roots of unity
xi_j = 2 pi j / n into a block-diagonal matrix and undoing the discrete
Fourier conjugation yields the nm x nm block circulant

    M = tridiagonal(sub = k repeated n, super = ones)
        + corner (1, nm) = k_m + corner (nm, 1) = 1,

so charpoly(M) factors through the symbol.  Angles come in conjugate pairs
xi_j, xi_{n-j}, hence every eigenvalue of M away from the real angles
j = n and j = n/2 has a two-dimensional eigenspace, spanned by the Bloch
waves at +-xi_j.  Their combination that vanishes at site 0 is an
eigenvector of the plain tridiagonal sign matrix left by deleting the first
row and column of M, which therefore inherits those eigenvalues.

That combination is built directly: with x_0 = 0 and x_1 = 1, the rows of
M x = lam x are the three-term recurrence x_{t+1} = lam x_t - s_{t-1} x_{t-1}
over the signs s of the repeated pattern, and the truncation's nonzero
off-diagonals make the solution unique up to scale.  Each target costs O(nm)
and all targets of a call run as one batch, which keeps no rows.  A target
is verified when the unit vector the recurrence builds leaves a residual
||L y - lam y|| <= tol on the truncation L.  M is never assembled and no
vector is kept: every row of M x - lam x but the first and the last is the
recurrence, so a witness's defect on M is read off the recurrence's two
boundary rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError, ConvergenceError
from .polyroot import IntPolynomial
from .polyroot import roots_many  # unused here; perfbench/tracing.py wraps it
from .signmodel import SignVector, ensure_even_parity
from .symbol import preimages, symbol_poly, two_cos_pi

__all__ = [
    "EmbeddingResult",
    "block_circulant_charpoly",
    "truncate",
    "verify_embedding",
]

# largest effective nm that verify_embedding takes; a call keeps a few numbers
# per target at any size, so the cap bounds the nm x targets recurrence steps
EMBED_SIZE_CAP = 4096

# default residual bound of a verified target
EMBED_TOL = 1e-8


def block_circulant_charpoly(k: SignVector, n: int) -> IntPolynomial:
    """Exact det(M - x I) of the block circulant, any size.

    M is the symbol of the n-fold repeated pattern at angle 0, so with N = nm
    and p the symbol polynomial of that pattern (the integer corner
    expansion of symbol_poly), det(M - x I) = (-1)^N (p(x) - K^n - 1).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    kn = k.repeated(n)
    shifted = symbol_poly(kn)
    shifted[0] -= kn.product() + 1
    return IntPolynomial(tuple(-shifted if len(kn) % 2 else shifted))


def truncate(k: SignVector, n: int) -> SignVector:
    """Subdiagonal pattern after deleting row and column 1 of the circulant.

    Both corners sit in the deleted row/column, so the submatrix is plain
    tridiagonal: the n-fold repetition of k shifted left by one, length nm-2.
    """
    pattern = k.repeated(n)
    size = len(pattern)
    if size < 3:
        raise ValueError("truncation needs nm >= 3")
    keep = size - 2
    return SignVector(keep, (pattern.bits >> 1) & ((1 << keep) - 1))


@dataclass(frozen=True)
class EmbeddingResult:
    l: SignVector
    n: int
    m: int
    targets: SpectrumCloud
    residuals: tuple[float, ...]
    verified: bool
    worst_residual: float
    witness_residuals: tuple[float, ...]
    excluded_angles: tuple[int, ...]
    excluded_values: np.ndarray
    excluded_residuals: np.ndarray


# rescaling by a power of two is exact; 2^256 keeps every squared
# component of a rescaled solution far from overflow
_RESCALE_BITS = 256


def _recurrence(signs, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of x_{t+1} = lam x_t - s_{t-1} x_{t-1}, x_0 = 0, x_1 = 1.

    Two values per lam, with N = len(signs) and ||x|| = ||(x_1..x_{N-1})||.
    First |x_N| / ||x||, which is ||L y - lam y|| for the unit vector
    y = x_1..x_{N-1} of the truncation L (subdiagonal s_1..s_{N-2}): every
    row of L y - lam y but the last is the recurrence itself.  Then
    sqrt(|x_1 + s_{N-1} x_{N-1}|^2 + |x_N|^2) / ||x||, the norm of rows 0
    and N-1 of M x - lam x for x = (0, y) on the block circulant M, whose
    other rows are the recurrence.  The squared norm is summed as the rows
    are made, in the row order of np.linalg.norm(axis=0).  A column whose
    squared modulus outgrows 2^512 is scaled by 2^-256 with its predecessor,
    its sum and its x_1.
    """
    prev = np.zeros(lams.size, dtype=complex)
    cur = np.ones(lams.size, dtype=complex)
    first, total, term = np.ones(lams.size), np.zeros(lams.size), np.ones(lams.size)
    for s in signs[:-1]:
        total += term
        # subtract prev or add it, without multiplying it by the sign
        prev, cur = cur, (np.subtract if s > 0 else np.add)(lams * cur, prev)
        term = (cur.conj() * cur).real
        big = term > 2.0 ** (2 * _RESCALE_BITS)
        if big.any():
            scale = np.where(big, 2.0**-_RESCALE_BITS, 1.0)
            prev, cur, term, total = prev * scale, cur * scale, term * scale**2, total * scale**2
            first = first * scale
    norm = np.sqrt(total)
    corner = first + signs[-1] * prev
    return np.abs(cur) / norm, np.sqrt((corner.conj() * corner).real + term) / norm


def verify_embedding(
    k: SignVector,
    n: int,
    tol: float = EMBED_TOL,
) -> EmbeddingResult:
    """Check that every guaranteed target is an eigenvalue of the truncation.

    The targets are spec(a(xi_j)) over the allowed angles j in {1..n-1}
    minus n/2; the excluded angles j = n/2 (even n only) and j = n give the
    segment endpoints +-2, where the conjugate-pair multiplicity argument
    fails.  n must be at least 3, the first n with an allowed angle, so
    j = 1 and j = n - 1 are always targets.  The pattern is parity-doubled
    if needed; the result records the effective period, and an effective nm
    above EMBED_SIZE_CAP is refused.
    Every target and every excluded value goes through one batched
    three-term recurrence (see _recurrence), and its residual is
    ||L y - lam y|| for the unit vector y that the recurrence builds on the
    truncation L; a target is verified when that residual is at most tol.
    Residuals at the excluded angles are reported for inspection but never
    asserted: row e of the read-only (E, m) arrays ``excluded_values`` and
    ``excluded_residuals`` belongs to angle ``excluded_angles[e]``.

    ``witness_residuals[i]`` bounds ||M x - lam x|| for target i's unit
    vector x = (0, y) on the nm x nm block circulant M: the combination of
    the Bloch waves at +-xi_j that vanishes at site 0.  It is the closed form
    of rows 0 and N-1 (see _recurrence) plus eps (2 |lam| + 1), a bound on
    the rounding of the other rows.  With u = eps / 2, each computed step
    x_{t+1} = fl(fl(lam x_t) -+ x_{t-1}) misses the recurrence by at most
    sqrt(5) u |lam| |x_t| (the complex product) plus u |x_{t+1}| (the sum),
    so those rows have norm at most u (sqrt(5) |lam| + 1) ||x||.  The margin
    left, above eps / 2, covers the closed form's own rounding, relative and
    at most about nm eps / 2 (the running sum of squares), while the closed
    form is below 1 / nm; a target within tol is far inside that.
    A ConvergenceError of the solve names the pattern, n and the angle.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    keff = ensure_even_parity(k)
    m = len(keff)
    if n * m > EMBED_SIZE_CAP:
        raise CapExceededError(f"embedding size nm = {n * m} above cap {EMBED_SIZE_CAP}")
    # the allowed angles (the targets), then the excluded ones
    allowed = [j for j in range(1, n) if 2 * j != n]
    js = allowed + ([n // 2] if n % 2 == 0 else []) + [n]
    l = truncate(keff, n)
    # j and n - j have bit-identical targets, and a row's roots do not depend
    # on its batch: row min(j, n - j) - 1 of one solve serves j (-1 serves n)
    distinct = [*range(1, n // 2 + 1), n]
    try:
        once = preimages(symbol_poly(keff), [two_cos_pi(2 * j, n) for j in distinct])
    except ConvergenceError as exc:
        where = f"period {m}, pattern {keff.to_text()}, n = {n}, angle j = {distinct[exc.row]}"
        raise exc.at(f"embed, {where}") from None
    solved = once[[min(j, n - j) - 1 for j in js]]
    tags = [f"target:j={j}" for j in allowed]
    targets = SpectrumCloud.from_values(solved[: len(allowed)], tags)
    values = targets.values()
    # the targets are the first rows of solved, in cloud order
    count = len(values)
    signs = keff.repeated(n).signs
    unit_residuals, boundary = _recurrence(signs, np.ravel(solved))
    residuals = tuple(unit_residuals[:count].tolist())
    worst = max(residuals)
    verified = all(r <= tol for r in residuals)
    witness = boundary[:count] + np.finfo(float).eps * (2 * np.abs(values) + 1)
    # the result views the excluded angles' rows of both arrays, read-only
    solved.flags.writeable = False
    unit_residuals.flags.writeable = False

    return EmbeddingResult(
        l=l,
        n=n,
        m=m,
        targets=targets,
        residuals=residuals,
        verified=verified,
        worst_residual=worst,
        witness_residuals=tuple(witness.tolist()),
        excluded_angles=tuple(js[len(allowed):]),
        excluded_values=solved[len(allowed):],
        excluded_residuals=unit_residuals[count:].reshape(-1, m),
    )
