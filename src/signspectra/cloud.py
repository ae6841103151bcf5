"""Tagged point clouds in the complex plane.

Clouds are finite multisets of entries: a complex value, one provenance tag
(which pattern, which angle, which truncation size produced it) and a count
of the equal points it stands for, 1 unless the cloud was given counts.

A cloud is the complex values, one int32 tag code per value, a tag table of
distinct strings in sorted order (codes index it, so ordering by code orders
by tag string) and one count per value in the least unsigned dtype (uint8
unless some count is above 255).
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
        codes = np.asarray(codes).ravel()  # checked before int32 can wrap it
        self._table = tuple(table)
        n = self._values.size
        if codes.size != n:
            raise ValueError(f"{codes.size} codes for {n} values")
        if n and not 0 <= codes.min() <= codes.max() < len(self._table):
            bad = codes[~((codes >= 0) & (codes < len(self._table)))][0]
            raise ValueError(f"code {bad} is outside [0, {len(self._table)})")
        self._codes = _readonly(codes.astype(np.int32, copy=False))
        unordered = next(((a, b) for a, b in zip(self._table, self._table[1:]) if a >= b), ())
        if unordered:
            raise ValueError("tags must be sorted and distinct, not %r before %r" % unordered)
        counts = np.ones(n, np.uint8) if counts is None else np.asarray(counts).ravel()
        if counts.size != n or n and (counts.dtype.kind not in "iu" or counts.min() < 1):
            raise ValueError(f"counts must be {n} integers of at least 1")
        self._counts = _readonly(counts.astype(np.min_scalar_type(counts.max(initial=1))))
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

    def counts(self) -> np.ndarray:
        """The count of each entry, at least 1, in cloud order (a read-only array)."""
        return self._counts

    def table(self) -> tuple[str, ...]:
        """The distinct tags, sorted."""
        return self._table

    def __len__(self) -> int:  # the number of points: the sum of the counts
        return int(self._counts.sum())

    def merged(self, *others: "SpectrumCloud") -> "SpectrumCloud":
        clouds = (self, *others)
        table = sorted(set().union(*(c._table for c in clouds)))
        index = {t: i for i, t in enumerate(table)}
        codes = [
            np.array([index[t] for t in c._table], dtype=np.int32)[c._codes]
            for c in clouds
        ]
        return SpectrumCloud(
            np.concatenate([c._values for c in clouds]), np.concatenate(codes), table,
            np.concatenate([c._counts for c in clouds]),
        )

    def _take(self, idx: np.ndarray) -> "SpectrumCloud":
        return SpectrumCloud(self._values[idx], self._codes[idx], self._table, self._counts[idx])

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
