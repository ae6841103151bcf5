"""Finite sign-matrix spectra via the three-term continuant recursion.

For the (n+1) x (n+1) matrix with subdiagonal pattern k and superdiagonal
ones, the characteristic determinant D_{n+1}(x) = det(A - x I) obeys

    D_0 = 1,  D_1 = -x,  D_{j+1} = -x D_j - k_j D_{j-1},

so coefficients are exact integers.  charpoly_finite runs it over a stack
of patterns at once; it is the one continuant of the package, and the
symbol polynomials are built from it too.  Enumeration solves every
reversal class of one size in one batch.
"""

from __future__ import annotations

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError
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
    vals = roots_many(charpoly_finite(k)[None], tol)[0]
    return SpectrumCloud.from_values(vals, f"fin:n={len(k)}")


def _reversal_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks of one pattern per reversal class, ascending, and class sizes.

    Reversing the pattern transposes the matrix, so both members share one
    exact characteristic polynomial and the multiset union is unchanged.
    A mask is kept when its bit reversal is not smaller; palindromes are
    their own class and count once.
    """
    bits = np.arange(1 << n, dtype=np.int64)
    rev = np.zeros_like(bits)
    for i in range(n):
        rev |= ((bits >> i) & 1) << (n - 1 - i)
    keep = rev >= bits
    return bits[keep], np.where(rev[keep] == bits[keep], 1, 2)


def enumerate_sigma(
    n: int,
    tol: float = DEFAULT_TOL,
    cap: int = ENUMERATION_CAP,
) -> SpectrumCloud:
    """Union of finite_eigenvalues over all 2^n patterns of length n.

    One pattern per reversal class is solved and its roots repeated by the
    class size; the root finder treats each row on its own, so this is
    bitwise equal to solving every pattern.  The cloud is not sorted: it is
    in class order (ascending representative mask, bit j set when
    s_j = -1), each root row repeated by its class size.  The emitters sort
    once, and that stable sort equals the sorted union bit for bit.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise CapExceededError(
            f"n = {n} above enumeration cap {cap}; raise it explicitly "
            "(cap argument / --cap flag) if you mean it"
        )
    bits, mult = _reversal_classes(n)
    signs = 1 - 2 * ((bits[:, None] >> np.arange(n)) & 1)
    solved = roots_many(charpoly_finite(signs), tol)
    return SpectrumCloud.from_values(np.repeat(solved, mult, axis=0), f"fin:n={n}")
