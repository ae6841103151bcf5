"""Tagged point clouds in the complex plane.

Clouds are finite multisets of entries: a complex value, one provenance tag
(which pattern, which angle, which truncation size produced it) and a count
of the equal points it stands for, 1 unless the cloud was given counts.

A cloud is the complex values, one int32 tag code per value, a tag table of
distinct strings in sorted order (codes index it, so ordering by code orders
by tag string) and, if some count is above 1, the counts in the least dtype.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SpectrumCloud"]

# the cell side of snapped(), the dedup behind the CLI's --dedup
SNAP_CELL = 1e-6


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


def _check_key_span(nmags: int, ncodes: int, points: int) -> None:
    if (2 * nmags + 1) * ncodes * points > 1 << 63:
        raise ValueError(f"{points} points, {nmags} moduli, {ncodes} tags overflow the sort key")


class SpectrumCloud:
    """Immutable multiset of tagged complex points."""

    __slots__ = ("_values", "_codes", "_table", "_counts", "_ranks")

    def __init__(self, values=(), codes=(), table: Sequence[str] = (), counts=None):
        """One code per value, indexing ``table``, which must be sorted and distinct,
        and one integer count of at least 1 per value (all 1 when omitted)."""
        self._values = _readonly(np.asarray(values, dtype=complex).ravel())
        self._codes = _readonly(np.asarray(codes, dtype=np.int32).ravel())
        if self._values.size != self._codes.size:
            raise ValueError(f"{self._codes.size} codes for {self._values.size} values")
        if counts is not None:
            counts = np.asarray(counts).ravel()
            bad = counts.size and (counts.dtype.kind not in "iu" or counts.min() < 1)
            if bad or counts.size != self._values.size:
                raise ValueError(f"counts must be {self._values.size} integers of at least 1")
            keep = not (counts == 1).all()
            counts = _readonly(counts.astype(np.min_scalar_type(counts.max()))) if keep else None
        self._counts = counts
        self._table = tuple(table)
        self._ranks = None

    @classmethod
    def from_values(cls, values, tag: str | Sequence[str], counts=None) -> "SpectrumCloud":
        """Build from complex values, all carrying one tag, and counts of their shape.

        With a sequence of tags, values[..., i, :] carries tag[i] (row i of a
        2-D array does); equal tags share one entry.  A complex ndarray is not copied:
        the cloud views it read-only, so the caller must not write it after.
        """
        vals = np.asarray(values, dtype=complex)
        if isinstance(tag, str):
            return cls(vals.ravel(), np.zeros(vals.size, dtype=np.int32), (tag,), counts)
        if vals.ndim < 2 or vals.shape[-2] != len(tag):
            raise ValueError(f"{len(tag)} tags for values of shape {vals.shape}")
        table, code = np.unique(np.asarray(tag, dtype=str), return_inverse=True)
        codes = np.broadcast_to(code[:, None], vals.shape).ravel()
        return cls(vals.ravel(), codes, table.tolist(), counts)

    def values(self) -> np.ndarray:
        """The complex value of each entry, in cloud order (a read-only array)."""
        return self._values

    def codes(self) -> np.ndarray:
        """The tag code of each entry, indexing table() (a read-only array)."""
        return self._codes

    def counts(self) -> np.ndarray | None:
        """The count of each entry (a read-only array), or None when every count is 1."""
        return self._counts

    def table(self) -> tuple[str, ...]:
        """The distinct tags, sorted."""
        return self._table

    def __len__(self) -> int:  # the number of points: the sum of the counts
        return self._values.size if self._counts is None else int(self._counts.sum())

    def merged(self, *others: "SpectrumCloud") -> "SpectrumCloud":
        clouds = (self, *others)
        table = sorted(set().union(*(c._table for c in clouds)))
        index = {t: i for i, t in enumerate(table)}
        codes = [
            np.array([index[t] for t in c._table], dtype=np.int32)[c._codes]
            for c in clouds
        ]
        counts = None
        if any(c._counts is not None for c in clouds):
            counts = np.concatenate([np.ones(c._values.size, np.uint8) if c._counts is None
                                     else c._counts for c in clouds])
        return SpectrumCloud(
            np.concatenate([c._values for c in clouds]), np.concatenate(codes), table, counts
        )

    def _take(self, idx: np.ndarray) -> "SpectrumCloud":
        counts = None if self._counts is None else self._counts[idx]
        return SpectrumCloud(self._values[idx], self._codes[idx], self._table, counts)

    def magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct moduli of the parts (one nan at most), and a (2, n)
        array of each point's index of |re| (row 0) and |im| (row 1) among them."""
        if self._ranks is not None:
            return self._ranks
        mags, index = np.unique(np.abs(self._values.view(float)), return_inverse=True)
        return mags, index.reshape(-1, 2).T

    def sorted(self) -> "SpectrumCloud":
        """Deterministic ordering by (re, im, tag); ties keep input order, as in
        np.lexsort over the points, an entry's copies adjacent, so entries alone are
        moved: two np.sort passes, by (im, code) then re, over int64 keys of signed
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

    def snapped(self) -> "SpectrumCloud":
        """Grid-snap dedup for plotting: one point per occupied cell of side SNAP_CELL.

        Cells are indexed by round-half-even of re/SNAP_CELL and im/SNAP_CELL
        as int64, so a point with a part that is nan, infinite or of modulus
        about 9.2e12 or more is refused: a ValueError names the first in
        sorted order.  The representative of a cell is its first member in
        sorted order, so the result is deterministic and sorted; it counts once.
        """
        s = self.sorted()
        cells = np.rint(s._values.view(float).reshape(-1, 2) / SNAP_CELL)
        fits = (np.abs(cells) < 2.0**63).all(axis=1)  # false for nan
        if not fits.all():
            far = s._values[np.argmin(fits)]
            raise ValueError(f"snapped() takes finite parts below 9.2e12 in modulus, not {far}")
        _, first = np.unique(cells.astype(np.int64), axis=0, return_index=True)
        keep = np.sort(first)
        return SpectrumCloud(s._values[keep], s._codes[keep], s._table)

    def __repr__(self) -> str:
        return f"SpectrumCloud({len(self)} points)"
