"""Finite sign-matrix spectra via the three-term continuant recursion.

For the (n+1) x (n+1) matrix with subdiagonal pattern k and superdiagonal
ones, the characteristic determinant D_{n+1}(x) = det(A - x I) obeys

    D_0 = 1,  D_1 = -x,  D_{j+1} = -x D_j - k_j D_{j-1},

so coefficients are exact integers.  charpoly_finite runs it over a stack
of patterns at once; it is the one continuant of the package, and the
symbol polynomials are built from it too.  Enumeration solves one pattern
per {reversal, negation} orbit of one size in one batch: reversal
transposes the matrix, and negation rotates the spectrum, D_{-k}(x) =
i^{-N} D_k(i x) with N = n + 1, so sigma(-k) = i sigma(k) (spectra are
symmetric under z -> -z).  The negated patterns get the exact image
(-z.imag, z.real) of each solved root z, which carries exactly z's error.
"""

from __future__ import annotations

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError, ConvergenceError
from .polyroot import DEFAULT_TOL, roots_many
from .signmodel import SignVector

__all__ = [
    "charpoly_finite",
    "finite_eigenvalues",
    "enumerate_sigma",
]

ENUMERATION_CAP = 16
COEFF_SIZE_CAP = 64


def charpoly_finite(signs) -> np.ndarray:
    """det(A - x I) as ascending integer coefficients, degree n+1, per pattern.

    ``signs`` is a SignVector or a +-1 array of shape (..., n); the result
    has shape (..., n+2).  It is exact: the coefficients of D_{j+1} sum in
    modulus to at most Fib(j+2), which is below 2^53 for n <= COEFF_SIZE_CAP,
    so there the rows are int64 and their float64 cast is exact too.  Longer
    patterns run the same loop over Python ints in an object array.
    """
    s = np.asarray(signs.signs if isinstance(signs, SignVector) else signs, dtype=np.int64)
    n = s.shape[-1]
    if n > COEFF_SIZE_CAP:
        s = s.astype(object)
    prev = np.zeros(s.shape[:-1] + (n + 2,), dtype=s.dtype)
    cur = np.zeros_like(prev)
    prev[..., 0] = 1
    cur[..., 1] = -1
    for j in range(n):
        # D_{j+2} = -x D_{j+1} - s_j D_j; D_{j+1} has degree j+1
        nxt = -s[..., j, None] * prev
        nxt[..., 1 : j + 3] -= cur[..., : j + 2]
        prev, cur = cur, nxt
    return cur


def finite_eigenvalues(k: SignVector, tol: float = DEFAULT_TOL) -> SpectrumCloud:
    """All n+1 eigenvalues, tagged with the matrix size parameter."""
    if len(k) > COEFF_SIZE_CAP:
        raise CapExceededError(f"n = {len(k)} above cap {COEFF_SIZE_CAP}: inexact in float64")
    try:
        vals = roots_many(charpoly_finite(k)[None], tol)[0]
    except ConvergenceError as exc:
        raise exc.at(f"finite spectrum, n = {len(k)}, pattern {k.to_text()}") from None
    return SpectrumCloud.from_values(vals, f"fin:n={len(k)}")


def _orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One bit mask per {k, rev k, -k, rev -k} orbit, its smallest, ascending
    (bit j set when s_j = -1, so -k is the complement), and a repeat count.

    The orbit has 4 members, or 2 when rev k = k or rev k = -k.  The root row
    of k stands for half of them and its image i z for the other half, so
    each carries the count, 1 or 2.  (When rev k = -k the spectrum is
    invariant under i, but its computed roots are not bitwise.)
    """
    bits = np.arange(1 << n, dtype=np.int64)
    rev = np.zeros_like(bits)
    for i in range(n):
        rev |= ((bits >> i) & 1) << (n - 1 - i)
    neg = bits ^ ((1 << n) - 1)
    keep = (bits <= rev) & (bits < neg) & (bits <= rev ^ ((1 << n) - 1))
    return bits[keep], np.where((rev == bits) | (rev == neg), np.uint8(1), np.uint8(2))[keep]


def enumerate_sigma(
    n: int,
    tol: float = DEFAULT_TOL,
    cap: int = ENUMERATION_CAP,
) -> SpectrumCloud:
    """Union of finite_eigenvalues over all 2^n patterns of length n.

    One pattern per orbit is solved, bitwise as it would be alone; since
    D_{-k}(x) = i^{-N} D_k(i x), the negated patterns get the exact image
    i z = (-z.imag, z.real) of its roots, with exactly their error.  The
    cloud is not sorted: its first half is the root rows in orbit order
    (ascending representative mask, bit j set when s_j = -1), each root an
    entry with its orbit's count, and its second half their images in that
    order with the same counts; len() is (n + 1) 2^n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise CapExceededError(
            f"n = {n} above enumeration cap {cap}; raise it explicitly "
            "(cap argument / --cap flag) if you mean it"
        )
    bits, mult = _orbits(n)
    signs = 1 - 2 * ((bits[:, None] >> np.arange(n)) & 1)
    try:
        solved = roots_many(charpoly_finite(signs), tol)
    except ConvergenceError as exc:
        word = SignVector(n, int(bits[exc.row])).to_text()
        raise exc.at(f"enumerate n = {n}, pattern {word}") from None
    cloud = np.empty((2, *solved.shape), dtype=complex)
    cloud[0] = solved
    cloud[1].real = -solved.imag
    cloud[1].imag = solved.real
    counts = np.broadcast_to(mult[:, None], cloud.shape)
    return SpectrumCloud.from_values(cloud, f"fin:n={n}", counts)
