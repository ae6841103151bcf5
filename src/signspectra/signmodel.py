"""Sign patterns and gauge normalization.

A sign pattern is a finite word over {+1, -1}.  A finite tridiagonal sign
matrix of size n+1 has zero diagonal, a superdiagonal sign pattern of length
n and a subdiagonal sign pattern of length n.  A periodic operator is the
analogous pair of patterns read cyclically on the doubly infinite line.

Diagonal conjugation by a +-1 diagonal turns any superdiagonal pattern into
all ones while multiplying each subdiagonal entry by the matching
superdiagonal entry.  That normalization is what the rest of the package
relies on: only the subdiagonal pattern matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError

__all__ = [
    "SignVector",
    "parse_sign_vector",
    "gauge_normalize_finite",
    "gauge_normalize_periodic",
    "ensure_even_parity",
]


@dataclass(frozen=True)
class SignVector:
    """Packed +-1 word: bit i of ``bits`` is set exactly when entry i is -1."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sign vector needs at least one entry")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bit mask {self.bits:#x} out of range for n={self.n}")

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        for _ in range(self.n):
            yield -1 if bits & 1 else 1
            bits >>= 1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(self)

    def to_text(self) -> str:
        return "".join("-" if (self.bits >> i) & 1 else "+" for i in range(self.n))

    def product(self) -> int:
        return -1 if self.bits.bit_count() & 1 else 1

    def repeated(self, times: int) -> "SignVector":
        if times < 1:
            raise ValueError("times must be positive")
        bits = 0
        for i in range(times):
            bits |= self.bits << (i * self.n)
        return SignVector(times * self.n, bits)

    def __repr__(self) -> str:  # compact, test-friendly
        return f"SignVector({self.to_text()!r})"


def parse_sign_vector(text: str) -> SignVector:
    """Parse a '+'/'-' word.  Rejects empty input and foreign characters."""
    if not text:
        raise ParseError("empty sign pattern (position 0)", position=0)
    bits = 0
    for i, ch in enumerate(text):
        if ch == "-":
            bits |= 1 << i
        elif ch != "+":
            raise ParseError(
                f"invalid character {ch!r} at position {i}; expected '+' or '-'",
                position=i,
            )
    return SignVector(len(text), bits)


def gauge_normalize_finite(k: SignVector, l: SignVector) -> SignVector:
    """Subdiagonal pattern after conjugating the super pattern to all ones.

    The conjugating diagonal is d_1 = 1, d_{i+1} = d_i * l_i (partial
    products of l), which is unitary since every l_i is +-1.  The
    superdiagonal becomes all ones and subdiagonal entry i becomes k_i * l_i,
    so the spectrum only depends on the products.
    """
    if k.n != l.n:
        raise ValueError(f"k length {k.n} != l length {l.n}")
    return SignVector(k.n, k.bits ^ l.bits)


def gauge_normalize_periodic(k: SignVector, l: SignVector) -> SignVector:
    """Subdiagonal pattern of the periodic (sub k, super l) operator, super all ones.

    When the product of the l entries over one period is +1 the finite
    rule applies and the period is unchanged.  When it is -1 no periodic
    +-1 gauge exists at period m, so both patterns are doubled first; the
    doubled pair describes the identical operator at period 2m, and its
    gauged pattern is the finite one repeated twice.
    """
    ktilde = gauge_normalize_finite(k, l)
    return ktilde.repeated(2) if l.product() == -1 else ktilde


def ensure_even_parity(k: SignVector) -> SignVector:
    """Return k unchanged if its -1 count is even, else k repeated twice.

    Repeating the period leaves the periodic operator untouched and makes the
    sign product +1, which is what turns the symbol determinant into a real
    2 cos(phi) target.
    """
    if k.product() == -1:
        return k.repeated(2)
    return k
