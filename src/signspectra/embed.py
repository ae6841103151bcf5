"""Block-circulant assembly and the constructive spectral embedding.

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
and all targets of a call run as one batch.  A target is verified when the
unit vector the recurrence builds leaves a residual ||L y - lam y|| <= tol
on the truncation L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError
from .polyroot import IntPolynomial
from .polyroot import roots_many  # unused here; perfbench/tracing.py wraps it
from .signmodel import SignVector, ensure_even_parity
from .symbol import preimages, symbol_array, symbol_poly, two_cos_pi

__all__ = [
    "Witness",
    "ExcludedTarget",
    "EmbeddingResult",
    "build_block_circulant",
    "block_circulant_charpoly",
    "truncate",
    "verify_embedding",
]

# largest effective nm that verify_embedding takes: the recurrence keeps nm
# complex values for each of about nm targets, 256 MiB per copy at this size
EMBED_SIZE_CAP = 4096


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
class Witness:
    target_index: int
    value: complex
    vector: np.ndarray
    first_component: float
    residual: float


@dataclass(frozen=True)
class ExcludedTarget:
    j: int
    values: tuple[complex, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class EmbeddingResult:
    l: SignVector
    n: int
    m: int
    targets: SpectrumCloud
    residuals: tuple[float, ...]
    verified: bool
    worst_residual: float
    witnesses: tuple[Witness, ...] | None
    excluded: tuple[ExcludedTarget, ...]


# rescaling by a power of two is exact; 2^256 keeps every squared
# component of a rescaled solution far from overflow
_RESCALE_BITS = 256


def _recurrence(signs, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def verify_embedding(
    k: SignVector,
    n: int,
    tol: float = 1e-8,
    want_witness: bool = False,
) -> EmbeddingResult:
    """Check that every guaranteed target is an eigenvalue of the truncation.

    The targets are spec(a(xi_j)) over the allowed angles j in {1..n-1}
    minus n/2; the excluded angles j = n/2 (even n only) and j = n give the
    segment endpoints +-2, where the conjugate-pair multiplicity argument
    fails.  The pattern is parity-doubled if needed; the result records the
    effective period, and an effective nm above EMBED_SIZE_CAP is refused.
    Every target and every excluded value goes through one batched
    three-term recurrence (see _recurrence), and its residual is
    ||L y - lam y|| for the unit vector y that the recurrence builds on the
    truncation L; a target is verified when that residual is at most tol.
    Residuals at the excluded angles are reported for inspection but never
    asserted.

    With want_witness, target i also gets the unit vector x = (0, y) of the
    nm x nm block circulant M, the combination of the Bloch waves at +-xi_j
    that vanishes at site 0, with its first component |x_0| = 0 and its
    residual ||M x - lam x|| against the assembled M.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    keff = ensure_even_parity(k)
    m = len(keff)
    if n * m > EMBED_SIZE_CAP:
        raise CapExceededError(f"embedding size nm = {n * m} above cap {EMBED_SIZE_CAP}")
    # one solve for the allowed angles (the targets) and the excluded ones
    allowed = [j for j in range(1, n) if 2 * j != n]
    js = allowed + ([n // 2] if n % 2 == 0 else []) + [n]
    l = truncate(keff, n)
    solved = preimages(symbol_poly(keff), [two_cos_pi(2 * j, n) for j in js])
    if allowed:
        tags = [f"target:j={j}" for j in allowed]
        targets = SpectrumCloud.from_values(solved[: len(allowed)], tags)
    else:
        targets = SpectrumCloud(warnings=(f"empty target set: n = {n} excludes every angle",))
    values = targets.values()
    # the targets are the first rows of solved, in cloud order
    count = len(values)
    x, unit_residuals = _recurrence(keff.repeated(n).signs, np.ravel(solved))
    residuals = tuple(unit_residuals[:count].tolist())
    worst = max(residuals, default=0.0)
    verified = all(r <= tol for r in residuals)

    excluded = tuple(
        ExcludedTarget(
            j=j,
            values=tuple(complex(v) for v in vals),
            residuals=tuple(res.tolist()),
        )
        for j, vals, res in zip(
            js[len(allowed):], solved[len(allowed):], unit_residuals[count:].reshape(-1, m)
        )
    )

    witnesses = None
    if want_witness and count:
        x = x[:, :count]
        defect = np.linalg.norm(build_block_circulant(keff, n) @ x - x * values, axis=0)
        witnesses = tuple(
            Witness(
                target_index=i,
                value=complex(values[i]),
                vector=x[:, i].copy(),
                first_component=float(abs(x[0, i])),
                residual=float(defect[i]),
            )
            for i in range(count)
        )

    return EmbeddingResult(
        l=l,
        n=n,
        m=m,
        targets=targets,
        residuals=residuals,
        verified=verified,
        worst_residual=worst,
        witnesses=witnesses,
        excluded=excluded,
    )
