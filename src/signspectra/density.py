"""Quantitative density checks: how close finite spectra come to periodic ones.

The metric is the directed Hausdorff distance d(X -> Y) = max over x of the
distance from x to Y.  directed_hausdorff assumes no symmetry, so it stays
valid in mutation tests; density_report relies on sigma_n = i sigma_n.  It
reports only the maximum of each distance series, so it first scans a probe
of each series against every sigma_n for a floor under the final maximum,
then sweeps the sizes over the query points that can still set a maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import SpectrumCloud
from .errors import CapExceededError
from .finite import ENUMERATION_CAP, enumerate_sigma
from .polyroot import DEFAULT_TOL
from .symbol import periodic_spectrum, symbol_poly

__all__ = [
    "directed_hausdorff",
    "periodic_union",
    "disk_grid",
    "DensityReport",
    "density_report",
]

PERIOD_CAP = 10

# lattice points of disk_grid before clipping; step 0.001 needs 4.0 M (245 MiB)
DISK_GRID_CAP = 1 << 22

# DensityReport.monotone lets a distance series rise by this much from one n to the next
MONOTONE_SLACK = 1e-12


# entries or distances per numpy pass; bounds the scan's scratch memory
_BLOCK = 1 << 16

# density_report probes every _PROBE_STRIDE-th member of each series for its floor
_PROBE_STRIDE = 64


def _blocks(counts: np.ndarray) -> list[slice]:
    """Runs of consecutive entries whose counts add up to about _BLOCK."""
    cuts = np.searchsorted(np.cumsum(counts), np.arange(_BLOCK, counts.sum(), _BLOCK))
    edges = np.unique(np.r_[0, cuts, counts.size])
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


class _CellGrid:
    """Points sorted into square cells, column by column, so the cells of one
    column between two rows hold one contiguous slice of them, found in a
    table keyed by cell.  Built once per Y, it serves every scan of Y."""

    def __init__(self, ys: np.ndarray):
        re, im = ys.real, ys.imag
        cell = max(math.hypot(float(np.ptp(re)), float(np.ptp(im))) / math.sqrt(ys.size), 1e-6)
        self.cell = cell
        gx = np.floor(re / cell)
        gy = np.floor(im / cell)
        self.x0, self.y0 = x0, y0 = gx.min(), gy.min()
        self.w, self.h = w, h = int(gx.max() - x0) + 1, int(gy.max() - y0) + 1
        key = ((gx - x0) * h + (gy - y0)).astype(np.int64)
        order = np.argsort(key, kind="stable")
        self.ys = ys[order]
        # rows a..b of column c hold ys[bounds[c * h + a]:bounds[c * h + b + 1]]
        self.bounds = np.searchsorted(key[order], np.arange(w * h + 1))
        # Y's share of the scale of a scan's slack
        self.scale = max(cell, float(np.abs(re).max()), float(np.abs(im).max()))


def _lower_nearest(xs: np.ndarray, grid: _CellGrid, best: np.ndarray) -> None:
    """Lower best[i] to min over y of |xs[i] - y| wherever that is smaller.

    A point nearer to x than best[i] lies in the square of half-side best[i]
    around x, so each query reads only the grid columns of that square.  The
    square is capped at a reach that starts at one cell: a query that finds
    nothing within its reach doubles the reach and reads again, until a match
    lies within the reach or the square covers every cell.  The square is
    widened by a slack far above the rounding of the cell arithmetic, so it
    holds every point at a computed distance below best[i].  The minimum
    therefore runs over a candidate set that contains the nearest neighbor,
    with the |x - y| a brute-force scan would use, and agrees with brute
    force to the last bit.  Duplicates in ys cost time only.
    """
    ys, bounds, cell, w, h = grid.ys, grid.bounds, grid.cell, grid.w, grid.h
    u = xs.real / cell - grid.x0
    v = xs.imag / cell - grid.y0
    scale = max(grid.scale, float(np.abs(xs.real).max()), float(np.abs(xs.imag).max()))
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


def _fold_by_i(z: np.ndarray) -> np.ndarray:
    """i^k z in {re > 0, im >= 0}, by exact swaps and negations of parts; 0 stays 0."""
    flip = (z.imag < 0) | ((z.imag == 0) & (z.real < 0))  # z -> -z
    x, y = np.where(flip, -z.real, z.real), np.where(flip, -z.imag, z.imag)
    turn = (x <= 0) & (y > 0)  # z -> -i z
    return np.stack([np.where(turn, y, x), np.where(turn, -x, y)], axis=-1).view(complex)[:, 0]


def _quadrant(z: np.ndarray) -> np.ndarray:
    """The points of z in {re > 0, im >= 0}, and its zeros: one per i-orbit of an invariant z."""
    return z[((z.real > 0) & (z.imag >= 0)) | (z == 0)]


def _unfolded(z: np.ndarray) -> np.ndarray:
    """The values z, i z, -z and -i z, by exact swaps and negations of parts."""
    turn = np.stack([-z.imag, z.real], axis=-1).view(complex)[:, 0]
    return np.concatenate([z, turn, -z, -turn])


def directed_hausdorff(
    xs: np.ndarray, ys: np.ndarray | _CellGrid, best: np.ndarray | None = None
) -> float:
    """max_{x in X} min_{y in Y} |x - y|, bucketized but exact.

    X and Y are 1-D complex point arrays.  ``best`` carries one distance per
    point of X, in array order; it is lowered in place to the distance to Y
    wherever that is smaller, and the result is its maximum.  Feeding Y in parts with one carried array
    therefore gives the distance to the union of the parts seen so far,
    scanning each part once.  Without it every point starts at infinity and
    exact duplicates in X are dropped first.  Duplicates in Y change no
    minimum and no maximum; they cost time, not exactness, so a caller that
    scans one Y more than once dedups it once itself, and passes Y as the
    _CellGrid of its points, built once.
    """
    grid = ys if isinstance(ys, _CellGrid) else None
    ys = ys if grid is None else grid.ys
    if xs.size == 0 or ys.size == 0:
        raise ValueError("directed_hausdorff needs nonempty point sets")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("directed_hausdorff needs finite values")
    if best is None:
        xs = np.unique(xs)
        best = np.full(xs.size, np.inf)
    elif best.shape != xs.shape:
        raise ValueError(f"{best.size} carried distances for {xs.size} query points")
    _lower_nearest(xs, grid or _CellGrid(ys), best)
    return float(best.max())


def periodic_union(max_m: int, samples: int, tol: float = DEFAULT_TOL) -> SpectrumCloud:
    """Union of sampled periodic spectra over every pattern of period <= max_m.

    Patterns are stacked by effective period after parity doubling, in
    (length, mask) order.  Patterns sharing one symbol polynomial produce
    bit-identical clouds, so each period is one solve over the first pattern
    of each polynomial, kept in that order, which fixes the order of tied
    points; the union is a set of spectra, not a multiset over patterns.
    """
    if max_m < 1:
        raise ValueError(f"max_m must be at least 1, got {max_m}")
    if max_m > PERIOD_CAP:
        raise CapExceededError(f"period capped at {PERIOD_CAP}")
    stacks: dict[int, list[np.ndarray]] = {}
    for m in range(1, max_m + 1):
        signs = 1 - 2 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)
        odd = signs.prod(axis=1) < 0
        stacks.setdefault(m, []).append(signs[~odd])
        stacks.setdefault(2 * m, []).append(np.tile(signs[odd], 2))
    parts = []
    for stack in map(np.concatenate, stacks.values()):
        _, first = np.unique(symbol_poly(stack), axis=0, return_index=True)
        parts.append(periodic_spectrum(stack[np.sort(first)], samples, tol))
    return SpectrumCloud().merged(*parts)


def disk_grid(step: float) -> np.ndarray:
    """Complex points: a square lattice clipped to the closed unit disk, plus snapped boundary.

    Lattice points just outside the disk (within one diagonal cell) are
    projected onto the circle, so the boundary is represented at every
    resolution.  Deterministic for regression baselines.  A step whose
    lattice exceeds DISK_GRID_CAP points is refused before anything is built.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"disk grid step must be positive and finite, got {step}")
    ratio = (1.0 + step) / step
    count = (2 * math.ceil(ratio) + 1) ** 2 if ratio < math.inf else math.inf
    if count > DISK_GRID_CAP:
        raise CapExceededError(f"disk grid step {step}: {count} points above cap {DISK_GRID_CAP}")
    reach = math.ceil(ratio)
    axis = np.arange(-reach, reach + 1) * step
    re, im = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    r = np.hypot(re, im)
    keep = r <= 1.0 + step * math.sqrt(2.0)
    scale = np.maximum(r[keep], 1.0)
    return re[keep] / scale + 1j * (im[keep] / scale)


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

    def monotone(self) -> bool:
        for series in (self.pi_distances, self.disk_distances):
            vals = [series[n] for n in sorted(series)]
            for a, b in zip(vals, vals[1:]):
                if b > a + MONOTONE_SLACK:
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
    cap: int = ENUMERATION_CAP,
) -> DensityReport:
    """Distances from the periodic union and the unit disk to finite spectra.

    Finite spectra are accumulated over sizes (sigma up to n, matching the
    union in their definition), so both distance series are nonincreasing in
    n by construction: the minimum over a superset can only shrink.  A
    minimum over sigma up to n is the smaller of the one up to n - 1 and the
    one over sigma_n, so each query point carries its nearest distance and
    every step scans only sigma_n (sigma_1 joins sigma_2).  That sigma_n
    must be exactly invariant under z -> i z, as enumerate_sigma builds it;
    a quarter turn of both points keeps |x - y| bitwise, so each i-orbit of
    the query cloud (which needs no symmetry) is scanned once, and sigma_n
    is held as the distinct points of its quadrant re > 0, im >= 0 (and 0),
    deduplicated once as it is enumerated and turned back into all of
    sigma_n's values for each scan.

    Only each series' maximum is reported.  A probe, every _PROBE_STRIDE-th
    member of each series, is scanned against every sigma_n first; the
    largest final distance of a series' probed members is a floor at most
    its final maximum, and a point of both series takes the smaller floor.
    The sweep over n then scans the live points only, and drops a point once
    its carried distance falls below its floor: it can only fall further,
    while every later maximum is at least the final one, so the maximum over
    the live members is the maximum over all of them, as the same float.

    A max_n above ``cap``, the enumeration cap, a disk step that disk_grid
    refuses (the grid is built first) or a sample count that
    periodic_spectrum refuses is refused before any solve.
    """
    if max_n > cap:
        raise CapExceededError(f"max_n capped at {cap}")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    disk = disk_grid(disk_step)
    # the union's points, then the disk grid's, folded to one point per i-orbit
    union = periodic_union(max_m, samples, tol).values()
    pi_size = union.size
    points, inverse = np.unique(_fold_by_i(np.concatenate([union, disk])), return_inverse=True)
    # member[0] marks the folded points of the union, member[1] the disk grid's
    member = np.zeros((2, points.size), dtype=bool)
    member[0, inverse[:pi_size]] = True
    member[1, inverse[pi_size:]] = True
    probed = np.unique(np.concatenate([np.flatnonzero(m)[::_PROBE_STRIDE] for m in member]))
    final = np.full(probed.size, np.inf)
    sizes = range(2, max_n + 1)
    grids = []
    sigma_sizes: dict[int, int] = {}
    for n in sizes:
        fresh = enumerate_sigma(n, tol, cap=cap).values()
        if n == 2:  # sigma_1 joins sigma_2
            fresh = np.concatenate([enumerate_sigma(1, tol).values(), fresh])
        sigma_sizes[n] = sigma_sizes.get(n - 1, 0) + fresh.size
        grids.append(_CellGrid(_unfolded(np.unique(_quadrant(fresh)))))
        del fresh  # not held while the next sigma_n is enumerated
        directed_hausdorff(points[probed], grids[-1], final)
    floors = [final[m[probed]].max() for m in member]
    floor = np.where(member, np.array(floors)[:, None], np.inf).min(axis=0)
    best = np.full(points.size, np.inf)
    pi_distances: dict[int, float] = {}
    disk_distances: dict[int, float] = {}
    for n, grid in zip(sizes, grids):
        directed_hausdorff(points, grid, best)
        pi_distances[n], disk_distances[n] = (float(best[m].max()) for m in member)
        live = best >= floor
        points, best, member, floor = points[live], best[live], member[:, live], floor[live]
    return DensityReport(
        max_n=max_n,
        max_m=max_m,
        samples=samples,
        disk_step=disk_step,
        pi_size=pi_size,
        sigma_sizes=sigma_sizes,
        pi_distances=pi_distances,
        disk_distances=disk_distances,
    )
