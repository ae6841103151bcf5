"""The four benchmark workloads: the CLI argv a user would type, and the
output check for each invocation.

An op is one CLI invocation.  ``argv`` holds ``{out}`` where the pass's
output directory goes; ``check(op, outdir)`` returns (items of work the
invocation completed, problems found).  ``reaches`` names the per-layer
counts a traced pass of the workload must find nonzero.  Every workload
runs with ``--threads 1``.  ``reduced`` sizes exist for the benchmark's
self-check.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    argv: list[str]
    out: str
    info: dict = field(default_factory=dict)


class Enumerate:
    name = "enumerate-acc14"
    items = "eigenvalues emitted"
    kernel = "sort"  # calibration kernel, see calibrate.py
    reaches = ("polyroot.calls", "finite.charpoly_calls", "cloud.points_built",
               "cloud.points_sorted", "cli_io.files_written")

    def __init__(self, reduced: bool = False):
        self.n = 6 if reduced else 14
        self._expected = None

    def ops(self, seed: int) -> list[Op]:
        out = "sigma.csv"
        argv = ["--threads", "1", "enumerate", "--n", str(self.n), "--accumulate",
                "--out", "{out}/" + out]
        return [Op(argv, out)]

    def check(self, op: Op, outdir: str):
        if self._expected is None:
            self._expected = checks.finite_expected(self.n)
        return checks.check_cloud_csv(os.path.join(outdir, op.out), self._expected, "enumerate")


class PeriodicUnion:
    name = "periodic-union8"
    items = "eigenvalues emitted"
    kernel = "sort"  # calibration kernel, see calibrate.py
    reaches = ("polyroot.calls", "symbol.symbol_poly_calls", "cloud.points_built",
               "cloud.points_sorted", "cli_io.files_written")

    def __init__(self, reduced: bool = False):
        self.max_m, self.samples = (4, 17) if reduced else (8, 257)
        self._expected = None

    def ops(self, seed: int) -> list[Op]:
        out = "pi.csv"
        argv = ["--threads", "1", "spectrum", "--mode", "periodic",
                "--union-max-m", str(self.max_m), "--samples", str(self.samples),
                "--out", "{out}/" + out]
        return [Op(argv, out)]

    def check(self, op: Op, outdir: str):
        if self._expected is None:
            self._expected = checks.periodic_expected(self.max_m, self.samples)
        return checks.check_cloud_csv(os.path.join(outdir, op.out), self._expected, "periodic")


class Density:
    name = "density-12"
    items = "Hausdorff query points scanned"
    kernel = "sort"  # calibration kernel, see calibrate.py
    reaches = ("density.hausdorff_calls", "finite.charpoly_calls", "symbol.symbol_poly_calls",
               "polyroot.calls", "cloud.points_built", "cli_io.files_written")

    def __init__(self, reduced: bool = False):
        if reduced:
            self.params = {"max_n": 6, "max_m": 3, "samples": 17, "disk_step": 0.2}
        else:
            self.params = {"max_n": 12, "max_m": 6, "samples": 257, "disk_step": 0.05}
        key = "{max_n} {max_m} {samples} {disk_step}".format(**self.params)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)["density"][key]

    def ops(self, seed: int) -> list[Op]:
        out = "density.json"
        p = self.params
        argv = ["--threads", "1", "density", "--max-n", str(p["max_n"]),
                "--max-m", str(p["max_m"]), "--samples", str(p["samples"]),
                "--disk-step", str(p["disk_step"]), "--out", "{out}/" + out]
        return [Op(argv, out)]

    def check(self, op: Op, outdir: str):
        return checks.check_density(os.path.join(outdir, op.out), self.params, self.reference)


# Draws per (period, parity) class; each is a multiple of the 8 sizes, so
# every size n appears equally often in every class.
EMBED_DRAWS = {1: 8, 2: 8, 3: 8, 4: 24, 5: 32}
EMBED_SIZES = range(3, 11)
# The CLI rejects this pattern; see NOTES.md, "Known defect".
EMBED_DEFECT = "--"


def embed_pairs(seed: int) -> list[tuple[str, int]]:
    """Seeded stratified draw of distinct (pattern, n) pairs.

    Patterns of one period and one sign-product parity cost about the same,
    so within each class every pattern gets the same number of distinct
    sizes and every size is used equally often.  The seed shuffles which
    pattern gets which sizes, and the order of the invocations.
    """
    rng = random.Random(seed)
    pairs = []
    for m, draws in EMBED_DRAWS.items():
        for parity in (0, 1):
            cls = ["".join(s) for s in itertools.product("+-", repeat=m)
                   if s.count("-") % 2 == parity and "".join(s) != EMBED_DEFECT]
            per = draws // len(cls)
            rng.shuffle(cls)
            sizes = list(EMBED_SIZES)
            rng.shuffle(sizes)
            for i, k in enumerate(cls):
                pairs += [(k, sizes[(i * per + j) % len(sizes)]) for j in range(per)]
    rng.shuffle(pairs)
    return pairs


class EmbedSweep:
    name = "embed-sweep"
    items = "embedding targets verified"
    kernel = "objects"  # calibration kernel, see calibrate.py
    reaches = ("embed.verify_calls", "embed.targets", "symbol.symbol_poly_calls",
               "polyroot.calls", "cli_io.files_written")

    def __init__(self, reduced: bool = False):
        self.count = 12 if reduced else None

    def ops(self, seed: int) -> list[Op]:
        ops = []
        for i, (k, n) in enumerate(embed_pairs(seed)[: self.count]):
            out = f"e{i}.json"
            argv = ["--threads", "1", "embed", f"--k={k}", "--n", str(n), "--witness",
                    "--out", "{out}/" + out]
            ops.append(Op(argv, out, {"k": k, "n": n}))
        return ops

    def check(self, op: Op, outdir: str):
        return checks.check_embed(os.path.join(outdir, op.out), op.info["k"], op.info["n"])

    # Untimed and uncounted: reports whether the known defect still shows.
    defect_probe = ["--threads", "1", "embed", f"--k={EMBED_DEFECT}", "--n", "3",
                    "--witness", "--out", "{out}/defect.json"]


WORKLOADS = {w.name: w for w in (Enumerate, PeriodicUnion, Density, EmbedSweep)}
