"""Block-circulant assembly and the constructive spectral embedding.

Arranging the symbol matrices a(xi_j) at the n-th roots of unity
xi_j = 2 pi j / n into a block-diagonal matrix and undoing the discrete
Fourier conjugation yields the nm x nm block circulant

    M = tridiagonal(sub = k repeated n, super = ones)
        + corner (1, nm) = k_m + corner (nm, 1) = 1,

so charpoly(M) factors through the symbol.  Angles come in conjugate pairs
xi_j, xi_{n-j}, hence every eigenvalue of M away from the real angles
j = n and j = n/2 has a two-dimensional eigenspace; combining two
eigenvectors kills the first coordinate, and deleting the first row and
column of M leaves a plain tridiagonal sign matrix that inherits those
eigenvalues.  That is the embedding this module verifies numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import SpectrumCloud
from .errors import WitnessDegenerateError
from .finite import charpoly_eval_many
from .polyroot import DEFAULT_TOL, IntPolynomial
from .polyroot import roots_many  # unused here; perfbench/tracing.py wraps it
from .signmodel import SignVector, ensure_even_parity
from .symbol import preimages, symbol_array, symbol_poly, two_cos_pi

__all__ = [
    "Witness",
    "ExcludedTarget",
    "EmbeddingResult",
    "build_block_circulant",
    "block_circulant_charpoly",
    "target_set",
    "truncate",
    "verify_embedding",
]


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
    sp = symbol_poly(k.repeated(n))
    shifted = sp.p - IntPolynomial((sp.k_product + 1,))
    return shifted.scaled(-1 if (n * len(k)) % 2 else 1)


def target_set(k: SignVector, n: int, tol: float = DEFAULT_TOL) -> SpectrumCloud:
    """Guaranteed embedded eigenvalues: spec(a(xi_j)) over allowed angles.

    Allowed angles are j in {1,...,n-1} minus n/2 (the exclusion only exists
    for even n); the excluded angles are exactly those whose target 2cos(xi_j)
    hits the segment endpoints +-2, where the conjugate-pair multiplicity
    argument fails.  Requires an even-parity pattern.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k.minus_count() % 2:
        raise ValueError("target_set needs an even-parity pattern; double it first")
    js = _allowed_angles(n)
    solved = preimages(symbol_poly(k).p, [two_cos_pi(2 * j, n) for j in js], tol)
    return _target_cloud(n, js, solved)


def _allowed_angles(n: int) -> list[int]:
    return [j for j in range(1, n) if 2 * j != n]


def _target_cloud(n: int, js: list[int], solved: list[np.ndarray]) -> SpectrumCloud:
    if not js:
        return SpectrumCloud(warnings=(f"empty target set: n = {n} excludes every angle",))
    parts = [
        SpectrumCloud.from_values(vals, f"target:j={j}") for j, vals in zip(js, solved)
    ]
    return SpectrumCloud().merged(*parts)


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


def _residuals_at(l: SignVector, values: np.ndarray) -> tuple[float, ...]:
    vals, scales = charpoly_eval_many(l, values)
    out = []
    for v, s in zip(vals, scales):
        if v == 0:
            out.append(0.0)
        else:
            out.append(float(abs(v)) / float(s))
    return tuple(out)


def _inverse_iterate(mat: np.ndarray, shift: complex, rng, steps: int = 4):
    size = mat.shape[0]
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    shifted = mat - shift * np.eye(size)
    for _ in range(steps):
        v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v)
    return v


def _witness_for(mat, lam, index, rng) -> Witness:
    eps = 1e-7 * max(1.0, abs(lam))
    v = _inverse_iterate(mat, lam + eps, rng)
    w = _inverse_iterate(mat, lam - eps, rng)
    if abs(v[0]) <= 1e-13:
        x = v
    else:
        perp = w - (np.conjugate(v) @ w) * v
        if np.linalg.norm(perp) < 1e-6:
            raise WitnessDegenerateError(
                f"eigenspace at target {index} (value {lam:.6g}) is numerically "
                "one-dimensional",
                target_index=index,
            )
        x = w[0] * v - v[0] * w
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        raise WitnessDegenerateError(
            f"vanishing combination at target {index}", target_index=index
        )
    x = x / norm
    residual = float(np.linalg.norm(mat @ x - lam * x))
    return Witness(
        target_index=index,
        value=complex(lam),
        vector=x,
        first_component=float(abs(x[0])),
        residual=residual,
    )


def verify_embedding(
    k: SignVector,
    n: int,
    tol: float = 1e-8,
    want_witness: bool = False,
) -> EmbeddingResult:
    """Check that every guaranteed target is an eigenvalue of the truncation.

    The pattern is parity-doubled if needed; the result records the effective
    period.  Verification evaluates the truncated matrix's characteristic
    determinant at each target and normalizes by the running magnitude bound.
    Residuals at the excluded angles (j = n and, for even n, j = n/2) are
    reported for inspection but never asserted.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    keff = ensure_even_parity(k)
    m = len(keff)
    # one solve for the allowed angles (the targets) and the excluded ones
    allowed = _allowed_angles(n)
    js = allowed + ([n // 2] if n % 2 == 0 else []) + [n]
    solved = preimages(symbol_poly(keff).p, [two_cos_pi(2 * j, n) for j in js])
    targets = _target_cloud(n, allowed, solved[: len(allowed)])
    l = truncate(keff, n)
    values = targets.values()
    residuals = _residuals_at(l, values) if len(values) else ()
    worst = max(residuals, default=0.0)
    verified = all(r <= tol for r in residuals)

    excluded = tuple(
        ExcludedTarget(
            j=j,
            values=tuple(complex(v) for v in vals),
            residuals=_residuals_at(l, vals),
        )
        for j, vals in zip(js[len(allowed):], solved[len(allowed):])
    )

    witnesses = None
    if want_witness and len(values):
        mat = build_block_circulant(keff, n)
        found = []
        for i, lam in enumerate(values):
            rng = np.random.default_rng(1000 + i)
            found.append(_witness_for(mat, complex(lam), i, rng))
        witnesses = tuple(found)

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
