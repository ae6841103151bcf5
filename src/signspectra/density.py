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


def _bucketize(values: np.ndarray, cell: float):
    """Occupied square cells: their x indices, y indices and member values."""
    ix = np.floor(values.real / cell).astype(np.int64)
    iy = np.floor(values.imag / cell).astype(np.int64)
    order = np.lexsort((iy, ix))
    ix, iy = ix[order], iy[order]
    starts = np.flatnonzero(np.r_[True, (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])])
    return ix[starts], iy[starts], np.split(values[order], starts[1:])


def directed_hausdorff(x_cloud: SpectrumCloud, y_cloud: SpectrumCloud) -> float:
    """max_{x in X} min_{y in Y} |x - y|, bucketized but exact.

    Exact duplicates are dropped from X and Y first; that changes neither
    the max-min nor any |x - y| compared.  Both are hashed into square
    cells; each query cell visits occupied Y cells in order of Chebyshev
    ring distance (empty rings are skipped outright) and stops once every
    unvisited cell is provably farther than the current best match: a point
    in a cell at ring distance c is at least (c-1) cells away.  The minimum
    is therefore taken over a candidate set that contains the true
    nearest-neighbor distance, with the same |x - y| arithmetic a
    brute-force scan would use, so results agree with brute force to the
    last bit.
    """
    xs = np.unique(x_cloud.values())
    ys = np.unique(y_cloud.values())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("directed_hausdorff needs nonempty clouds")
    diam = math.hypot(
        float(ys.real.max() - ys.real.min()), float(ys.imag.max() - ys.imag.min())
    )
    cell = max(diam / math.sqrt(ys.size), 1e-6)
    kx, ky, groups = _bucketize(ys, cell)
    worst = 0.0
    for cx, cy, chunk in zip(*_bucketize(xs, cell)):
        cheb = np.maximum(np.abs(kx - cx), np.abs(ky - cy))
        best = np.full(chunk.size, np.inf)
        rid = int(cheb.min())
        while True:
            cand = np.concatenate([groups[s] for s in np.nonzero(cheb == rid)[0]])
            d = np.abs(chunk[:, None] - cand[None, :]).min(axis=1)
            np.minimum(best, d, out=best)
            ahead = cheb[cheb > rid]
            if ahead.size == 0:
                break
            rid = int(ahead.min())
            if float(best.max()) <= (rid - 1) * cell:
                break
        worst = max(worst, float(best.max()))
    return worst


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
        key = symbol_poly(ensure_even_parity(k)).p.coeffs
        if key in seen:
            continue
        seen.add(key)
        parts.append(periodic_spectrum(k, samples, tol))
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
    n by construction: the minimum over a superset can only shrink.
    """
    if max_n > ENUMERATION_CAP:
        raise CapExceededError(f"max_n capped at {ENUMERATION_CAP}")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    start = time.monotonic()
    pi_cloud = periodic_union(max_m, samples, tol)
    grid = disk_grid(disk_step)
    accumulated = enumerate_sigma(1, tol, threads=threads)
    sigma_sizes: dict[int, int] = {}
    pi_distances: dict[int, float] = {}
    disk_distances: dict[int, float] = {}
    for n in range(2, max_n + 1):
        accumulated = accumulated.merged(enumerate_sigma(n, tol, threads=threads))
        sigma_sizes[n] = len(accumulated)
        pi_distances[n] = directed_hausdorff(pi_cloud, accumulated)
        disk_distances[n] = directed_hausdorff(grid, accumulated)
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
