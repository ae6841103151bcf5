"""Quantitative density checks: how close finite spectra come to periodic ones.

The metric is the directed Hausdorff distance d(X -> Y) = max over x of the
distance from x to Y.  Nothing here assumes any symmetry of the clouds, so
the metric stays valid in mutation tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError
from .finite import ENUMERATION_CAP, enumerate_sigma
from .polyroot import DEFAULT_TOL
from .signmodel import SignVector, ensure_even_parity
from .symbol import periodic_spectrum, symbol_poly

__all__ = [
    "directed_hausdorff",
    "periodic_union",
    "disk_grid",
    "DensityReport",
    "density_report",
]

PERIOD_CAP = 10


# entries or distances per numpy pass; bounds the scan's scratch memory
_BLOCK = 1 << 16


def _blocks(counts: np.ndarray) -> list[slice]:
    """Runs of consecutive entries whose counts add up to about _BLOCK."""
    cuts = np.searchsorted(np.cumsum(counts), np.arange(_BLOCK, counts.sum(), _BLOCK))
    edges = np.unique(np.r_[0, cuts, counts.size])
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _lower_nearest(xs: np.ndarray, ys: np.ndarray, best: np.ndarray) -> None:
    """Lower best[i] to min over y of |xs[i] - y| wherever that is smaller.

    ys must be distinct.  They are sorted into square cells, column by
    column, so the cells of one column between two rows hold one contiguous
    slice of ys, found in a table keyed by cell.  A point nearer to x than
    best[i] lies in the square of half-side best[i] around x, so each query
    reads only the columns of that square.  The square is capped at a reach
    that starts at one cell: a query that finds nothing within its reach
    doubles the reach and reads again, until a match lies within the reach
    or the square covers every cell.  The square is widened by a slack far
    above the rounding of the cell arithmetic, so it holds every point at a
    computed distance below best[i].  The minimum therefore runs over a
    candidate set that contains the nearest neighbor, with the |x - y| a
    brute-force scan would use, and agrees with brute force to the last bit.
    """
    re, im = ys.real, ys.imag
    cell = max(math.hypot(float(np.ptp(re)), float(np.ptp(im))) / math.sqrt(ys.size), 1e-6)
    gx = np.floor(re / cell)
    gy = np.floor(im / cell)
    x0, y0 = gx.min(), gy.min()
    w, h = int(gx.max() - x0) + 1, int(gy.max() - y0) + 1
    key = ((gx - x0) * h + (gy - y0)).astype(np.int64)
    order = np.argsort(key, kind="stable")
    ys = ys[order]
    # rows a..b of column c hold ys[bounds[c * h + a]:bounds[c * h + b + 1]]
    bounds = np.searchsorted(key[order], np.arange(w * h + 1))
    u = xs.real / cell - x0
    v = xs.imag / cell - y0
    scale = max(cell, float(np.abs(re).max()), float(np.abs(im).max()),
                float(np.abs(xs.real).max()), float(np.abs(xs.imag).max()))
    slack = 1e-12 * scale
    live = np.flatnonzero(best > 0)
    reach = cell
    while live.size:
        half = (np.minimum(best[live], reach) + slack) / cell
        c0 = np.clip(np.floor(u[live] - half), 0, w).astype(np.int64)
        c1 = np.clip(np.floor(u[live] + half), -1, w - 1).astype(np.int64)
        r0 = np.clip(np.floor(v[live] - half), 0, h).astype(np.int64)
        r1 = np.clip(np.floor(v[live] + half), -1, h - 1).astype(np.int64)
        cols = np.where(r0 <= r1, np.maximum(c1 - c0 + 1, 0), 0)
        for s in _blocks(cols):
            # one entry per (query, column) of its square
            k = cols[s]
            q = np.repeat(np.arange(s.start, s.stop), k)
            col = c0[q] + np.arange(q.size) - np.repeat(np.cumsum(k) - k, k)
            lo = bounds[col * h + r0[q]]
            _lower_pairs(xs, ys, best, live[q], lo, bounds[col * h + r1[q] + 1] - lo)
        whole = (c0 == 0) & (c1 == w - 1) & (r0 == 0) & (r1 == h - 1)
        live = live[(best[live] > reach) & ~whole]
        reach *= 2


def _lower_pairs(xs, ys, best, owner, lo, cnt) -> None:
    """best[o] = min(best[o], |xs[o] - ys[lo:lo + cnt]|) for each entry (o, lo, cnt).

    The entries of one owner are adjacent.
    """
    keep = cnt > 0
    owner, lo, cnt = owner[keep], lo[keep], cnt[keep]
    for s in _blocks(cnt):
        o, c = owner[s], cnt[s]
        start = np.cumsum(c) - c
        pos = np.arange(start[-1] + c[-1]) + np.repeat(lo[s] - start, c)
        d = np.abs(np.repeat(xs[o], c) - ys[pos])
        run = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
        o = o[run]
        best[o] = np.minimum(best[o], np.minimum.reduceat(d, start[run]))


def directed_hausdorff(
    x_cloud: SpectrumCloud, y_cloud: SpectrumCloud, best: np.ndarray | None = None
) -> float:
    """max_{x in X} min_{y in Y} |x - y|, bucketized but exact.

    ``best`` carries one distance per point of X, in cloud order; it is
    lowered in place to the distance to Y wherever that is smaller, and the
    result is its maximum.  Feeding Y in parts with one carried array
    therefore gives the distance to the union of the parts seen so far,
    scanning each part once.  Without it every point starts at infinity.
    Exact duplicates in Y (and in X when nothing is carried) are dropped
    first, which changes no minimum and no maximum.
    """
    xs = x_cloud.values()
    ys = np.unique(y_cloud.values())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("directed_hausdorff needs nonempty clouds")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("directed_hausdorff needs finite values")
    if best is None:
        xs = np.unique(xs)
        best = np.full(xs.size, np.inf)
    elif best.shape != xs.shape:
        raise ValueError(f"{best.size} carried distances for {xs.size} query points")
    _lower_nearest(xs, ys, best)
    return float(best.max())


def _all_patterns_upto(max_m: int):
    for m in range(1, max_m + 1):
        for bits in range(1 << m):
            yield SignVector(m, bits)


def periodic_union(max_m: int, samples: int, tol: float = DEFAULT_TOL) -> SpectrumCloud:
    """Union of sampled periodic spectra over every pattern of period <= max_m.

    Patterns sharing one effective symbol polynomial (after parity doubling)
    produce bit-identical clouds, so only one representative per polynomial
    is solved; the union is a set of spectra, not a multiset over patterns.
    """
    if max_m > PERIOD_CAP:
        raise CapExceededError(f"period capped at {PERIOD_CAP}")
    seen: set[tuple[int, ...]] = set()
    parts = []
    for k in _all_patterns_upto(max_m):
        p = symbol_poly(ensure_even_parity(k)).p
        if p.coeffs in seen:
            continue
        seen.add(p.coeffs)
        parts.append(periodic_spectrum(k, samples, tol, p))
    return SpectrumCloud().merged(*parts)


def disk_grid(step: float) -> SpectrumCloud:
    """Square lattice clipped to the closed unit disk, plus snapped boundary.

    Lattice points just outside the disk (within one diagonal cell) are
    projected onto the circle, so the boundary is represented at every
    resolution.  Deterministic for regression baselines.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    reach = math.ceil((1.0 + step) / step)
    axis = np.arange(-reach, reach + 1) * step
    re, im = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    r = np.hypot(re, im)
    keep = r <= 1.0 + step * math.sqrt(2.0)
    scale = np.maximum(r[keep], 1.0)
    return SpectrumCloud.from_values(re[keep] / scale + 1j * (im[keep] / scale), "disk")


@dataclass(frozen=True)
class DensityReport:
    max_n: int
    max_m: int
    samples: int
    disk_step: float
    pi_size: int
    sigma_sizes: dict[int, int]
    pi_distances: dict[int, float]
    disk_distances: dict[int, float]
    wall_time_s: float

    def monotone(self, slack: float = 1e-12) -> bool:
        for series in (self.pi_distances, self.disk_distances):
            vals = [series[n] for n in sorted(series)]
            for a, b in zip(vals, vals[1:]):
                if b > a + slack:
                    return False
        return True

    def to_json_dict(self) -> dict:
        # timing is deliberately left out: data files must be byte-identical
        # across reruns, so wall time lives in the run manifest instead
        return {
            "disk_distances": {str(n): self.disk_distances[n] for n in sorted(self.disk_distances)},
            "params": {
                "disk_step": self.disk_step,
                "max_m": self.max_m,
                "max_n": self.max_n,
                "samples": self.samples,
            },
            "pi_distances": {str(n): self.pi_distances[n] for n in sorted(self.pi_distances)},
            "pi_size": self.pi_size,
            "sigma_sizes": {str(n): self.sigma_sizes[n] for n in sorted(self.sigma_sizes)},
        }


def density_report(
    max_n: int,
    max_m: int,
    samples: int,
    disk_step: float,
    tol: float = DEFAULT_TOL,
    threads: int = 1,
) -> DensityReport:
    """Distances from the periodic union and the unit disk to finite spectra.

    Finite spectra are accumulated over sizes (sigma up to n, matching the
    union in their definition), so both distance series are nonincreasing in
    n by construction: the minimum over a superset can only shrink.  A
    minimum over sigma up to n is the smaller of the one up to n - 1 and the
    one over sigma_n, so each query point carries its nearest distance and
    every step scans only the new sigma_n.
    """
    if max_n > ENUMERATION_CAP:
        raise CapExceededError(f"max_n capped at {ENUMERATION_CAP}")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    start = time.monotonic()
    pi_cloud = periodic_union(max_m, samples, tol)
    grid = disk_grid(disk_step)
    pi_best = np.full(len(pi_cloud), np.inf)
    disk_best = np.full(len(grid), np.inf)
    # sigma_1 has no distance of its own; it joins the first scan
    fresh = enumerate_sigma(1, tol, threads=threads)
    size = 0
    sigma_sizes: dict[int, int] = {}
    pi_distances: dict[int, float] = {}
    disk_distances: dict[int, float] = {}
    for n in range(2, max_n + 1):
        fresh = fresh.merged(enumerate_sigma(n, tol, threads=threads))
        size += len(fresh)
        sigma_sizes[n] = size
        pi_distances[n] = directed_hausdorff(pi_cloud, fresh, pi_best)
        disk_distances[n] = directed_hausdorff(grid, fresh, disk_best)
        fresh = SpectrumCloud()
    return DensityReport(
        max_n=max_n,
        max_m=max_m,
        samples=samples,
        disk_step=disk_step,
        pi_size=len(pi_cloud),
        sigma_sizes=sigma_sizes,
        pi_distances=pi_distances,
        disk_distances=disk_distances,
        wall_time_s=time.monotonic() - start,
    )
