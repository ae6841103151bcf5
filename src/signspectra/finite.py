"""Finite sign-matrix spectra via the three-term continuant recursion.

For the (n+1) x (n+1) matrix with subdiagonal pattern k and superdiagonal
ones, the characteristic determinant D_{n+1}(x) = det(A - x I) obeys

    D_0 = 1,  D_1 = -x,  D_{j+1} = -x D_j - k_j D_{j-1},

so coefficients are exact integers and point evaluation is O(n).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError
from .polyroot import DEFAULT_TOL, IntPolynomial, roots_many
from .signmodel import SignVector

__all__ = [
    "charpoly_finite",
    "charpoly_eval_many",
    "finite_eigenvalues",
    "enumerate_sigma",
]

ENUMERATION_CAP = 16
COEFF_SIZE_CAP = 64


def charpoly_finite(k: SignVector) -> IntPolynomial:
    """det(A - x I) as an exact integer polynomial, degree n+1."""
    n = len(k)
    if n > COEFF_SIZE_CAP:
        raise CapExceededError(
            f"exact coefficients limited to n <= {COEFF_SIZE_CAP}; "
            "use charpoly_eval_many beyond that"
        )
    return _continuant(k.signs, n + 1)


def _continuant(signs, size: int) -> IntPolynomial:
    """D_size = det(T - x I) as an exact integer polynomial.

    T is the size x size zero-diagonal matrix with unit superdiagonal and
    subdiagonal signs[0..size-2].  The recursion's seeds D_0 = 1 and
    D_{-1} = 0 are returned for sizes 0 and -1, which the corner expansion
    of periods 1 and 2 needs.
    """
    if size < 1:
        return IntPolynomial((1,) if size == 0 else (0,))
    prev = [1]
    cur = [0, -1]
    for s in signs[: size - 1]:
        nxt = [0] + [-c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= s * c
        prev, cur = cur, nxt
    return IntPolynomial(tuple(cur))


def charpoly_eval_many(k: SignVector, lams) -> tuple[np.ndarray, np.ndarray]:
    """Continuant evaluation over an array of points.

    Returns (D_{n+1}(lams), S_{n+1}) where S is the running magnitude bound
    S_0 = 1, S_1 = |lam|, S_{j+1} = |lam| S_j + S_{j-1}; |D_j| <= S_j always,
    so |value|/scale is a meaningful normalized residual (S vanishes only
    where D provably vanishes too).
    """
    z = np.asarray(lams, dtype=complex)
    az = np.abs(z)
    d_prev = np.ones_like(z)
    d_cur = -z
    s_prev = np.ones_like(az)
    s_cur = az.copy()
    for s in k.signs:
        d_prev, d_cur = d_cur, -z * d_cur - s * d_prev
        s_prev, s_cur = s_cur, az * s_cur + s_prev
    return d_cur, s_cur


def finite_eigenvalues(k: SignVector, tol: float = DEFAULT_TOL) -> SpectrumCloud:
    """All n+1 eigenvalues, tagged with the matrix size parameter."""
    poly = charpoly_finite(k)
    vals = roots_many([np.asarray(poly.coeffs, dtype=complex)], tol)[0]
    return SpectrumCloud.from_values(vals, f"fin:n={len(k)}")


def _class_representatives(n: int):
    """(pattern, multiplicity) pairs, one per reversal class of the 2^n patterns.

    Reversing the pattern transposes the matrix, so both members share one
    exact characteristic polynomial and the multiset union is unchanged;
    palindromes are their own class and count once.
    """
    for bits in range(1 << n):
        k = SignVector(n, bits)
        rev = k.reflected()
        if rev.bits < bits:
            continue
        yield k, (1 if rev.bits == bits else 2)


def _solve_chunk(args):
    chunk, tol, tag = args
    rows = [np.asarray(charpoly_finite(k).coeffs, dtype=complex) for k, _ in chunk]
    solved = roots_many(rows, tol)
    # one cloud per chunk, in pattern order, each root row repeated mult times
    return SpectrumCloud.from_values(np.repeat(solved, [m for _, m in chunk], axis=0), tag)


def enumerate_sigma(
    n: int,
    tol: float = DEFAULT_TOL,
    cap: int = ENUMERATION_CAP,
    threads: int = 1,
) -> SpectrumCloud:
    """Union of finite_eigenvalues over all 2^n patterns of length n.

    One pattern per reversal class is solved and its roots repeated by the
    class size; the root finder treats each row on its own, so this is
    bitwise equal to solving every pattern.  Output is a multiset ordered
    by (re, im, tag); the union is associative and order-independent, so
    chunked parallel collection is safe.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise CapExceededError(
            f"n = {n} above enumeration cap {cap}; raise it explicitly "
            "(cap argument / --cap flag) if you mean it"
        )
    tag = f"fin:n={n}"
    pairs = list(_class_representatives(n))
    chunk_size = 2048
    chunks = [pairs[i : i + chunk_size] for i in range(0, len(pairs), chunk_size)]
    jobs = [(c, tol, tag) for c in chunks]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunked = list(pool.map(_solve_chunk, jobs))
    else:
        chunked = [_solve_chunk(j) for j in jobs]
    return SpectrumCloud().merged(*chunked).sorted()
