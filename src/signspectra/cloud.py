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


class SpectrumCloud:
    """Immutable multiset of tagged complex points."""

    __slots__ = ("_values", "_codes", "_table")

    def __init__(self, values=(), codes=(), table: Sequence[str] = ()):
        """One code per value, indexing ``table``, which must be sorted and distinct."""
        self._values = _readonly(np.asarray(values, dtype=complex).ravel())
        self._codes = _readonly(np.asarray(codes, dtype=np.int32).ravel())
        if self._values.size != self._codes.size:
            raise ValueError(f"{self._codes.size} codes for {self._values.size} values")
        self._table = tuple(table)

    @classmethod
    def from_values(cls, values, tag: str | Sequence[str]) -> "SpectrumCloud":
        """Build from complex values, all carrying one tag.

        With a sequence of tags, ``values`` is 2-D and row i carries tag[i];
        equal tags share one table entry.  A complex ndarray is not copied:
        the cloud views it read-only, so the caller must not write it after.
        """
        vals = np.asarray(values, dtype=complex)
        if isinstance(tag, str):
            return cls(vals.ravel(), np.zeros(vals.size, dtype=np.int32), (tag,))
        if vals.ndim != 2 or len(vals) != len(tag):
            raise ValueError(f"{len(tag)} tags for values of shape {vals.shape}")
        table, code = np.unique(np.asarray(tag, dtype=str), return_inverse=True)
        return cls(vals.ravel(), np.repeat(code, vals.shape[1]), table.tolist())

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

    def sorted(self) -> "SpectrumCloud":
        """Deterministic ordering by (re, im, tag); ties keep input order."""
        v = self._values
        return self._take(np.lexsort((self._codes, v.imag, v.real)))

    def snapped(self, cell: float = 1e-6) -> "SpectrumCloud":
        """Grid-snap dedup for plotting: one point per occupied cell.

        Cells are indexed by round-half-even of re/cell and im/cell.  The
        representative of a cell is its first member in sorted order, so the
        result is deterministic and sorted.
        """
        if cell <= 0:
            raise ValueError("cell must be positive")
        s = self.sorted()
        v = s._values
        keys = np.stack([np.rint(v.real / cell), np.rint(v.imag / cell)], axis=1)
        _, first = np.unique(keys.astype(np.int64), axis=0, return_index=True)
        return s._take(np.sort(first))

    def __repr__(self) -> str:
        return f"SpectrumCloud({len(self)} points)"
