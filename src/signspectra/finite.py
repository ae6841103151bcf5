"""Finite sign-matrix spectra via the three-term continuant recursion.

For the (n+1) x (n+1) matrix with subdiagonal pattern k and superdiagonal
ones, the characteristic determinant D_{n+1}(x) = det(A - x I) obeys

    D_0 = 1,  D_1 = -x,  D_{j+1} = -x D_j - k_j D_{j-1},

so coefficients are exact integers and point evaluation is O(n).
charpoly_finite runs it in int64 over a stack of patterns at once, and
enumeration solves every reversal class of one size in one batch;
_continuant keeps arbitrary precision for the symbol polynomials.
"""

from __future__ import annotations

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


def charpoly_finite(signs) -> np.ndarray:
    """det(A - x I) as ascending int64 coefficients, degree n+1, per pattern.

    ``signs`` is a SignVector or a +-1 array of shape (..., n); the result
    has shape (..., n+2).  It is exact: the coefficients of D_{j+1} sum in
    modulus to at most Fib(j+2) < 2^53 for n <= COEFF_SIZE_CAP, so the
    float64 cast of a row is exact too.
    """
    s = np.asarray(signs.signs if isinstance(signs, SignVector) else signs, dtype=np.int64)
    n = s.shape[-1]
    if n > COEFF_SIZE_CAP:
        raise CapExceededError(
            f"exact coefficients limited to n <= {COEFF_SIZE_CAP}; "
            "use charpoly_eval_many beyond that"
        )
    prev = np.zeros(s.shape[:-1] + (n + 2,), dtype=np.int64)
    cur = np.zeros_like(prev)
    prev[..., 0] = 1
    cur[..., 1] = -1
    for j in range(n):
        # D_{j+2} = -x D_{j+1} - s_j D_j; D_{j+1} has degree j+1
        nxt = -s[..., j, None] * prev
        nxt[..., 1 : j + 3] -= cur[..., : j + 2]
        prev, cur = cur, nxt
    return cur


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
