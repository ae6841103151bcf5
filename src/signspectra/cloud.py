"""Tagged point clouds in the complex plane.

Clouds are finite multisets: duplicate coordinates are kept, every point
carries exactly one provenance tag (which pattern, which angle, which
truncation size produced it).

A cloud is three arrays' worth of data: the complex values, one int32 tag
code per value, and a tag table of distinct strings in sorted order.  Codes
index the table, so ordering by code orders by tag string.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SpectrumCloud"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


def _check_key_span(nmags: int, ncodes: int, points: int) -> None:
    if (2 * nmags + 1) * ncodes * points > 1 << 63:
        raise ValueError(f"{points} points, {nmags} moduli, {ncodes} tags overflow the sort key")


class SpectrumCloud:
    """Immutable multiset of tagged complex points."""

    __slots__ = ("_values", "_codes", "_table", "_ranks")

    def __init__(self, values=(), codes=(), table: Sequence[str] = ()):
        """One code per value, indexing ``table``, which must be sorted and distinct."""
        self._values = _readonly(np.asarray(values, dtype=complex).ravel())
        self._codes = _readonly(np.asarray(codes, dtype=np.int32).ravel())
        if self._values.size != self._codes.size:
            raise ValueError(f"{self._codes.size} codes for {self._values.size} values")
        self._table = tuple(table)
        self._ranks = None

    @classmethod
    def from_values(cls, values, tag: str | Sequence[str]) -> "SpectrumCloud":
        """Build from complex values, all carrying one tag.

        With a sequence of tags, values[..., i, :] carries tag[i] (row i of a
        2-D array does); equal tags share one entry.  A complex ndarray is not copied:
        the cloud views it read-only, so the caller must not write it after.
        """
        vals = np.asarray(values, dtype=complex)
        if isinstance(tag, str):
            return cls(vals.ravel(), np.zeros(vals.size, dtype=np.int32), (tag,))
        if vals.ndim < 2 or vals.shape[-2] != len(tag):
            raise ValueError(f"{len(tag)} tags for values of shape {vals.shape}")
        table, code = np.unique(np.asarray(tag, dtype=str), return_inverse=True)
        return cls(vals.ravel(), np.broadcast_to(code[:, None], vals.shape).ravel(), table.tolist())

    def values(self) -> np.ndarray:
        """The complex values, in cloud order (a read-only array)."""
        return self._values

    def codes(self) -> np.ndarray:
        """The tag code of each point, indexing table() (a read-only array)."""
        return self._codes

    def table(self) -> tuple[str, ...]:
        """The distinct tags, sorted."""
        return self._table

    def tags(self) -> list[str]:
        """The tag of each point, in cloud order."""
        return np.array(self._table, dtype=object)[self._codes].tolist()

    def __len__(self) -> int:
        return self._values.size

    def merged(self, *others: "SpectrumCloud") -> "SpectrumCloud":
        clouds = (self, *others)
        table = sorted(set().union(*(c._table for c in clouds)))
        index = {t: i for i, t in enumerate(table)}
        codes = [
            np.array([index[t] for t in c._table], dtype=np.int32)[c._codes]
            for c in clouds
        ]
        return SpectrumCloud(
            np.concatenate([c._values for c in clouds]), np.concatenate(codes), table
        )

    def _take(self, idx: np.ndarray) -> "SpectrumCloud":
        return SpectrumCloud(self._values[idx], self._codes[idx], self._table)

    def magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct moduli of the parts (one nan at most), and a (2, n)
        array of each point's index of |re| (row 0) and |im| (row 1) among them."""
        if self._ranks is not None:
            return self._ranks
        mags, index = np.unique(np.abs(self._values.view(float)), return_inverse=True)
        return mags, index.reshape(-1, 2).T

    def sorted(self) -> "SpectrumCloud":
        """Deterministic ordering by (re, im, tag); ties keep input order, as in
        np.lexsort: two np.sort passes, by (im, code) then re, over int64 keys of signed
        ranks +-(1 + index of the modulus), -0 equal to +0 and nan last, with the row in
        the low part.  The result carries its magnitudes."""
        mags, index = self.magnitudes()
        n, k, c = self._values.size, mags.size, max(len(self._table), 1)
        _check_key_span(k, c, n)
        rows = np.arange(n)
        parts = zip((self._values.real, self._values.imag), index)
        re, im = (np.where(x < 0, k - 1 - i, k + 1 + i) for x, i in parts)  # -0.0, nan: not < 0
        first = np.sort((im * c + self._codes) * n + rows) % n
        order = first[np.sort(re[first] * n + rows) % n]
        out = self._take(order)
        out._ranks = mags, np.take(index, order, axis=1)
        return out

    def snapped(self, cell: float = 1e-6) -> "SpectrumCloud":
        """Grid-snap dedup for plotting: one point per occupied cell.

        Cells are indexed by round-half-even of re/cell and im/cell.  The
        representative of a cell is its first member in sorted order, so the
        result is deterministic and sorted.
        """
        if cell <= 0:
            raise ValueError("cell must be positive")
        s = self.sorted()
        keys = np.rint(s._values.view(float).reshape(-1, 2) / cell).astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        return s._take(np.sort(first))

    def __repr__(self) -> str:
        return f"SpectrumCloud({len(self)} points)"
