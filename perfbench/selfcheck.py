"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs every workload at its reduced size, one untraced and one traced pass,
requires the genuine outputs to pass their checks and the trace to give
every declared per-layer metric, then corrupts the outputs and requires each corruption to be
rejected: a dropped row, a point moved by 1e-3 (at several positions), a
+-lam pair and its conjugates moved by 1e-3 in ``mu = lam**2`` and, for
``embed``, a flipped ``verified``.  The power-sum limits grow with the
size of a tag group, so the two CSV workloads also run once at full size,
where their genuine outputs must pass and every pair move must be
rejected.  Corrupted files go through the content checks only, since the
manifest digest would catch any change.  Takes about a minute.
Exits 1 if any genuine output fails or any corruption passes.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import sys
import tempfile

import numpy as np

import checks
import run
import workloads

MOVE = 1e-3
POSITIONS = 5
# (sign, conjugated) of lam, -lam, conj(lam) and -conj(lam)
ORBIT = ((1, False), (-1, False), (1, True), (-1, True))


def pair_move(path: str, rng: random.Random):
    """Rows of one +-lam pair and its conjugates in the largest tag group
    that has one, and their values after moving ``mu = lam**2`` by MOVE
    along the real axis.  Every member must have a row of its tag within
    1e-9, so the moved cloud keeps both symmetries, as a wrong root of the
    halved polynomial would."""
    values, tags = checks.read_cloud_csv(path)
    tags = np.array(tags)
    names, counts = np.unique(tags, return_counts=True)
    # the largest tag groups first, where the power-sum limits are widest
    for name in names[np.argsort(-counts, kind="stable")]:
        same = np.flatnonzero(tags == name)
        for _ in range(100):
            i = int(same[rng.randrange(same.size)])
            lam = values[i]
            if abs(lam) < 0.1:
                continue
            moved = np.sqrt(lam * lam + MOVE)
            moved = moved if abs(moved - lam) < abs(moved + lam) else -moved
            rows, seen = {}, []
            for sign, conj in ORBIT:
                z = sign * (lam.conjugate() if conj else lam)
                if any(abs(z - w) < 1e-9 for w in seen):
                    continue
                seen.append(z)
                dist = np.abs(values[same] - z)
                dist[np.isin(same, list(rows))] = np.inf
                j = int(np.argmin(dist))
                if dist[j] > 1e-9:
                    break
                rows[int(same[j])] = sign * (moved.conjugate() if conj else moved)
            else:
                return i, rows
    raise ValueError(f"{path}: no +-lam pair with all its conjugates found")


def csv_corruptions(path: str, rng: random.Random, full: bool = False):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    for _ in range(POSITIONS):
        i, rows = pair_move(path, rng)
        bad = list(lines)
        for row, z in rows.items():
            tag = lines[row + 1].rstrip("\n").split(",", 2)[2]
            bad[row + 1] = f"{z.real:.17g},{z.imag:.17g},{tag}\n"
        yield f"+-lam pair of row {i + 1} moved in mu ({len(rows)} rows)", bad
    if full:
        return
    for _ in range(POSITIONS):
        i = rng.randrange(1, len(lines))
        yield f"dropped row {i}", lines[:i] + lines[i + 1 :]
        re, im, tag = lines[i].rstrip("\n").split(",", 2)
        for axis in ("re", "im"):
            moved = (float(re) + MOVE, float(im)) if axis == "re" else (float(re), float(im) + MOVE)
            row = f"{moved[0]:.17g},{moved[1]:.17g},{tag}\n"
            yield f"row {i} moved in {axis}", lines[:i] + [row] + lines[i + 1 :]


def density_corruptions(path: str, rng: random.Random):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for series in ("sigma_sizes", "pi_distances", "disk_distances"):
        n = rng.choice(sorted(report[series]))
        bad = json.loads(json.dumps(report))
        del bad[series][n]
        yield f"dropped {series}[{n}]", bad
        if series != "sigma_sizes":
            bad = json.loads(json.dumps(report))
            bad[series][n] += MOVE
            yield f"{series}[{n}] moved", bad
    bad = dict(report, pi_size=report["pi_size"] - 1)
    yield "pi_size short by one", bad


def embed_corruptions(path: str, rng: random.Random):
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    bad = dict(result, verified=False)
    yield "flipped verified", bad
    for _ in range(POSITIONS):
        i = rng.randrange(len(result["targets"]))
        bad = json.loads(json.dumps(result))
        del bad["targets"][i]
        yield f"dropped target {i}", bad
        for axis in ("re", "im"):
            bad = json.loads(json.dumps(result))
            bad["targets"][i][axis] += MOVE
            yield f"target {i} moved in {axis}", bad


def write(path: str, content) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(content, list):
            fh.write("".join(content))
        else:
            json.dump(content, fh)


def selfcheck(name: str, workdir: str, full: bool = False) -> list[str]:
    """Reduced size, traced; at full size, untraced and pair moves only."""
    workload = workloads.WORKLOADS[name](reduced=not full)
    ops = workload.ops(seed=1)
    plan = {"workdir": workdir, "ops": [op.argv for op in ops], "seconds": 0,
            "trace": not full, "kernel": workload.kernel, "probes": []}
    result = run.spawn_child(plan, workdir, name)
    tallies, problems = run.check_passes(workload, ops, result["passes"])
    failures = [f"{name}: genuine output rejected: {p}" for p in problems]
    if not full:
        metrics, problems = run.per_layer(result["passes"], workload)
        failures += [f"{name}: trace check failed: {p}" for p in problems]
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            run.with_units(metrics, json.load(fh)["per_layer"])
    outdir = result["passes"][0]["outdir"]
    rng = random.Random(name)
    if name == "embed-sweep":
        targets = [op for op in ops if op.info["n"] > 3][:2]
        make = embed_corruptions
    elif name == "density-12":
        targets, make = ops, density_corruptions
    else:
        targets = ops
        make = functools.partial(csv_corruptions, full=full)
    tried = 0
    for op in targets:
        path = os.path.join(outdir, op.out)
        keep = path + ".orig"
        shutil.copyfile(path, keep)
        for label, content in make(keep, rng):
            write(path, content)
            items, problems = workload.check(op, outdir)
            tried += 1
            if problems:
                print(f"  {name}: {label}: rejected: {problems[0]}")
            else:
                failures.append(f"{name}: corruption passed the checks: {label}")
    size = "full size" if full else "reduced"
    print(f"{name:18s} {size:9s} genuine outputs {'pass' if not failures else 'FAIL'}, "
          f"{tried} corruptions tried, "
          f"{sum('corruption passed' in f for f in failures)} passed the checks")
    return failures


def main() -> int:
    os.makedirs(os.path.join(run.HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(run.HERE, "work"))
    try:
        failures = []
        for name in workloads.WORKLOADS:
            sub = os.path.join(workdir, name)
            os.mkdir(sub)
            failures += selfcheck(name, sub)
        for name in ("enumerate-acc14", "periodic-union8"):
            sub = os.path.join(workdir, name + "-full")
            os.mkdir(sub)
            failures += selfcheck(name, sub, full=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
