"""Per-layer spans recorded from outside the program.

Public functions are wrapped at the module attributes where their callers
look them up; each call is a span whose parent is the innermost open span,
so a span's self time is its duration minus its children's.  Counts are
recorded by the same wrappers.  The program runs single-threaded
(``--threads 1``), so one stack is enough.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict


def _rows(counts, args, kwargs, result):
    counts["polyroot.calls"] += 1
    counts["polyroot.rows"] += len(args[0] if args else kwargs["coeff_rows"])


def _built(counts, args, kwargs, result):
    counts["cloud.points_built"] += len(result)


def _sorted(counts, args, kwargs, result):
    counts["cloud.points_sorted"] += len(result)


def _hausdorff(counts, args, kwargs, result):
    counts["density.hausdorff_calls"] += 1
    counts["density.hausdorff_query_points"] += len(args[0])


def _charpoly(counts, args, kwargs, result):
    counts["finite.charpoly_calls"] += 1


def _symbol_poly(counts, args, kwargs, result):
    counts["symbol.symbol_poly_calls"] += 1


def _verify(counts, args, kwargs, result):
    counts["embed.verify_calls"] += 1
    counts["embed.targets"] += len(result.targets)


def _manifest(counts, args, kwargs, result):
    # every data file the CLI writes is followed by its manifest
    for path in (args[0], result):
        counts["cli_io.files_written"] += 1
        counts["cli_io.bytes_written"] += os.path.getsize(path)


# (module, attribute, span name, counter); a module may be a class name
# inside signspectra.cloud, given as "cloud.SpectrumCloud".
BOUNDARIES = [
    ("cli_io", "main", "cli_io.main", None),
    ("cli_io", "write_cloud_csv", "cli_io.emit", None),
    ("cli_io", "write_manifest", "cli_io.emit", _manifest),
    ("cli_io", "enumerate_sigma", "finite.enumerate_sigma", None),
    ("density", "enumerate_sigma", "finite.enumerate_sigma", None),
    ("finite", "charpoly_finite", "finite.charpoly_finite", _charpoly),
    ("finite", "roots_many", "polyroot.roots_many", _rows),
    ("symbol", "roots_many", "polyroot.roots_many", _rows),
    ("embed", "roots_many", "polyroot.roots_many", _rows),
    ("cli_io", "periodic_spectrum", "symbol.periodic_spectrum", None),
    ("density", "periodic_spectrum", "symbol.periodic_spectrum", None),
    ("symbol", "symbol_poly", "symbol.symbol_poly", _symbol_poly),
    ("density", "symbol_poly", "symbol.symbol_poly", _symbol_poly),
    ("embed", "symbol_poly", "symbol.symbol_poly", _symbol_poly),
    ("cli_io", "periodic_union", "density.periodic_union", None),
    ("cli_io", "density_report", "density.density_report", None),
    ("density", "directed_hausdorff", "density.directed_hausdorff", _hausdorff),
    ("cli_io", "verify_embedding", "embed.verify_embedding", _verify),
    ("cloud.SpectrumCloud", "from_values", "cloud.from_values", _built),
    ("cloud.SpectrumCloud", "merged", "cloud.merged", None),
    ("cloud.SpectrumCloud", "sorted", "cloud.sorted", _sorted),
]


class Tracer:
    """Aggregates span durations, self times and counts for one pass."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list[float]] = []  # [start, time covered by children]

    def wrap(self, name, fn, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        saved = []
        try:
            for where, attr, name, count in BOUNDARIES:
                module, _, cls = where.partition(".")
                owner = importlib.import_module(f"signspectra.{module}")
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, count))
                else:
                    wrapped = self.wrap(name, original, count)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json for this pass."""
        t, s, c = self.total, self.self_time, self.counts
        rows = c["polyroot.rows"]
        return {
            "polyroot.roots_s": t["polyroot.roots_many"],
            "polyroot.calls": c["polyroot.calls"],
            "polyroot.rows": rows,
            "polyroot.us_per_row": 1e6 * t["polyroot.roots_many"] / rows if rows else 0.0,
            "cloud.build_s": t["cloud.from_values"],
            "cloud.points_built": c["cloud.points_built"],
            "cloud.merge_s": t["cloud.merged"],
            "cloud.sort_s": t["cloud.sorted"],
            "cloud.points_sorted": c["cloud.points_sorted"],
            "density.hausdorff_s": t["density.directed_hausdorff"],
            "density.hausdorff_calls": c["density.hausdorff_calls"],
            "density.hausdorff_query_points": c["density.hausdorff_query_points"],
            "density.self_s": s["density.periodic_union"] + s["density.density_report"],
            "finite.charpoly_s": t["finite.charpoly_finite"],
            "finite.charpoly_calls": c["finite.charpoly_calls"],
            "finite.enumerate_self_s": s["finite.enumerate_sigma"],
            "symbol.symbol_poly_s": t["symbol.symbol_poly"],
            "symbol.symbol_poly_calls": c["symbol.symbol_poly_calls"],
            "symbol.periodic_spectrum_self_s": s["symbol.periodic_spectrum"],
            "embed.verify_s": t["embed.verify_embedding"],
            "embed.verify_calls": c["embed.verify_calls"],
            "embed.targets": c["embed.targets"],
            "embed.self_s": s["embed.verify_embedding"],
            "cli_io.emit_s": t["cli_io.emit"],
            "cli_io.bytes_written": c["cli_io.bytes_written"],
            "cli_io.files_written": c["cli_io.files_written"],
            "cli_io.self_s": s["cli_io.main"],
        }

    def self_sum(self) -> float:
        return sum(self.self_time.values())
