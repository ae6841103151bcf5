"""Output checks for the benchmark workloads.

Every expected value here is computed without the signspectra package, from
dense matrices built in this file, so a fault in the package cannot also
fault its own check.  Checks never compare bytes with a stored file: the
root finder may legitimately move points in the last digits.

Tolerances, with the largest deviation measured on the outputs of the
commit that introduced this benchmark (the baseline):

- square bound ``|re| + |im| <= 2 + SQUARE_SLACK``;
- power sums ``sum(lam**r)``, r = 1..4, of a tag group within
  ``POWER_ABS[r] * sqrt(count)``.  Each factor is about four times the
  largest ``deviation / sqrt(count)`` over every group of both CSV
  workloads at the baseline (r = 1..4: 2.2e-10, 5.5e-7, 2.2e-9, 4.1e-6).
  At r = 2 and 4 the baseline deviation is not round-off but the root
  finder's forward error at multiple roots (ROADMAP item 4): at n = 14 it
  is 2.1e-4 in ``sum(lam**2)``.  Every finite matrix, and every symbol of
  even period, has a zero diagonal and a bipartite graph, so its
  eigenvalues come in +-lam pairs and the odd sums cannot see a pair that
  moves together, as it does when a root of the halved polynomial
  ``mu = lam**2`` is wrong; the even sums must.  Moving one such pair and
  its conjugates by 1e-3 along the real axis in ``mu`` changes
  ``sum(lam**2)`` by 2e-3 (real mu) or 4e-3, above the n = 14 limit of
  9.9e-4.  A move along the imaginary axis changes ``sum(lam**4)`` by
  8e-3 * |Im mu| only, so near-real ``mu`` can escape these sums;
- density distance series within ``DISTANCE_ABS`` of the baseline's values,
  which sits between the ~1e-5 point moves a root-finder change may make
  and the 1e-3 moves the checks must catch;
- embedding residuals within the tolerance the CLI recorded (1e-8; baseline
  worst 1.8e-11 for targets, 1e-10 for witnesses).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np

SQUARE_SLACK = 1e-8
# limit of sum(lam**r) for r = 1..4, per square root of the group's count
POWER_ABS = np.array([1e-9, 2e-6, 1e-8, 2e-5])
POWERS = POWER_ABS.size
DISTANCE_ABS = 1e-4


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_manifest(out_path: str) -> tuple[str | None, list[str]]:
    """(sha256 of the data file, problems): the side-car manifest must exist
    and name that digest."""
    name = os.path.basename(out_path)
    try:
        digest = sha256(out_path)
        with open(f"{out_path}.manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"{name} or its manifest unreadable: {exc}"]
    if [o.get("sha256") for o in manifest.get("outputs", [])] != [digest]:
        return digest, [f"manifest digest of {name} does not match the file"]
    return digest, []


def read_cloud_csv(path: str):
    """(values complex128, tags list) of a ``re,im,tag`` CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "re,im,tag":
            raise ValueError(f"unexpected CSV header {header!r}")
        text = fh.read()
    fields = text.replace("\n", ",").split(",")
    if fields[-1] != "" or (len(fields) - 1) % 3:
        raise ValueError("CSV rows do not have three fields")
    fields.pop()
    re = np.array(fields[0::3], dtype=float)
    im = np.array(fields[1::3], dtype=float)
    return re + 1j * im, fields[2::3]


# -- dense reference matrices -------------------------------------------------


def _signs(text: str) -> np.ndarray:
    return np.array([-1.0 if c == "-" else 1.0 for c in text])


def even_parity(text: str) -> str:
    """The pattern, doubled when its -1 count is odd (sign product +1)."""
    return text + text if text.count("-") % 2 else text


def symbol_stack(text: str, phis) -> np.ndarray:
    """Dense symbol a(phi) for each angle: zero diagonal, unit superdiagonal,
    the pattern on the subdiagonal and phase-carrying corners, summed where
    positions coincide (periods 1 and 2)."""
    phis = np.asarray(phis, dtype=float)
    m = len(text)
    s = _signs(text)
    a = np.zeros((phis.size, m, m), dtype=complex)
    i = np.arange(m - 1)
    a[:, i, i + 1] += 1.0
    a[:, i + 1, i] += s[:-1]
    a[:, 0, m - 1] += s[-1] * np.exp(1j * phis)
    a[:, m - 1, 0] += np.exp(-1j * phis)
    return a


def power_traces(a: np.ndarray, count: int) -> np.ndarray:
    """tr(a**r) for r = 1..count over a stack of matrices, shape (count, B)."""
    out = []
    p = a
    for _ in range(count):
        out.append(np.trace(p, axis1=-2, axis2=-1))
        p = p @ a
    return np.array(out)


def distinct_symbols(max_m: int) -> list[str]:
    """One even-parity representative per distinct symbol polynomial.

    For sign product +1, det(a(0) - x) = (-1)^m (p(x) - 2), so the traces
    tr(a(0)**r), r = 1..m, fix p through Newton's identities; integer
    arithmetic keeps the key exact.
    """
    seen: dict[tuple, str] = {}
    for m in range(1, max_m + 1):
        for signs in itertools.product("+-", repeat=m):
            text = even_parity("".join(signs))
            a0 = symbol_stack(text, [0.0])[0].real.round().astype(np.int64)
            key = [len(text)]
            p = a0
            for _ in range(len(text)):
                key.append(int(np.trace(p)))
                p = p @ a0
            seen.setdefault(tuple(key), text)
    return list(seen.values())


# -- power-sum comparison -----------------------------------------------------


def _group_power_sums(values: np.ndarray, tags: list[str]):
    names, inverse = np.unique(np.array(tags), return_inverse=True)
    sums = np.zeros((POWERS, names.size), dtype=complex)
    p = np.ones_like(values)
    for r in range(POWERS):
        p = p * values
        sums[r] = np.bincount(inverse, p.real, names.size) + 1j * np.bincount(
            inverse, p.imag, names.size
        )
    counts = np.bincount(inverse, minlength=names.size)
    return {str(t): (int(counts[i]), sums[:, i]) for i, t in enumerate(names)}


def compare_groups(values, tags, expected: dict, label: str) -> list[str]:
    """Per tag group: exact point count and power sums against ``expected``.

    ``expected`` maps tag -> (count, power sums r = 1..POWERS).
    """
    problems = []
    got = _group_power_sums(values, tags)
    if set(got) != set(expected):
        extra = sorted(set(got) - set(expected))[:3]
        missing = sorted(set(expected) - set(got))[:3]
        return [f"{label}: tag set differs (unexpected {extra}, missing {missing})"]
    for tag, (count, sums) in expected.items():
        n, s = got[tag]
        if n != count:
            problems.append(f"{label}: {tag} has {n} points, expected {count}")
            continue
        dev = np.abs(s - sums)
        limit = POWER_ABS * np.sqrt(count)
        bad = np.flatnonzero(dev > limit)
        if bad.size:
            r = int(bad[0])
            problems.append(
                f"{label}: {tag} power sum r={r + 1} off by {dev[r]:.3e} "
                f"(limit {limit[r]:.1e})"
            )
    return problems


def square_bound(values: np.ndarray, label: str) -> list[str]:
    excess = float(np.max(np.abs(values.real) + np.abs(values.imag), initial=0.0)) - 2.0
    if excess > SQUARE_SLACK:
        return [f"{label}: a point breaks |re| + |im| <= 2 by {excess:.3e}"]
    return []


# -- expected values per workload ---------------------------------------------


def finite_expected(max_n: int) -> dict:
    """tag -> (count, sum over all 2^n patterns of tr(A_k**r)) for n <= max_n."""
    out = {}
    for n in range(1, max_n + 1):
        size = n + 1
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
        a = np.zeros((1 << n, size, size))
        i = np.arange(n)
        a[:, i, i + 1] = 1.0
        a[:, i + 1, i] = 1.0 - 2.0 * bits
        out[f"fin:n={n}"] = (size << n, power_traces(a, POWERS).sum(axis=1).astype(complex))
    return out


def periodic_expected(max_m: int, samples: int) -> dict:
    """tag -> (count, power sums) for the union over distinct symbols.

    Roots of p(x) - 2 cos(phi) are the eigenvalues of a(phi) when the sign
    product is +1, so their power sums are traces of powers of a(phi).
    """
    phis = np.pi * np.arange(samples) / (samples - 1)
    out: dict = {}
    for text in distinct_symbols(max_m):
        m = len(text)
        traces = power_traces(symbol_stack(text, phis), POWERS)
        for s, phi in enumerate(phis):
            tag = f"per:m={m}:phi={phi:.3f}"
            count, sums = out.get(tag, (0, 0.0))
            out[tag] = (count + m, sums + traces[:, s])
    return out


def disk_grid_size(step: float) -> int:
    """Points of the density report's unit-disk grid at this step."""
    reach = int(math.ceil((1.0 + step) / step))
    count = 0
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            r = abs(complex(i * step, j * step))
            if r <= 1.0 + step * math.sqrt(2.0):
                count += 1
    return count


# -- per-workload checks ------------------------------------------------------


def check_cloud_csv(path: str, expected: dict, label: str) -> tuple[int, list[str]]:
    """Row count, square bound and per-tag power sums of an emitted cloud."""
    try:
        values, tags = read_cloud_csv(path)
    except (OSError, ValueError) as exc:
        return 0, [f"{label}: {exc}"]
    problems = []
    total = sum(count for count, _ in expected.values())
    if values.size != total:
        problems.append(f"{label}: {values.size} rows, expected {total}")
    problems += square_bound(values, label)
    problems += compare_groups(values, tags, expected, label)
    return values.size, problems


def check_density(path: str, params: dict, reference: dict) -> tuple[int, list[str]]:
    """Exact sizes, distances near the baseline's; items = query points scanned."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return 0, [f"density: {exc}"]
    problems = []
    max_n, max_m, samples = params["max_n"], params["max_m"], params["samples"]
    sizes = {str(n): sum((j + 1) << j for j in range(1, n + 1)) for n in range(2, max_n + 1)}
    if report.get("sigma_sizes") != sizes:
        problems.append("density: sigma_sizes differ from sum (j+1) 2^j")
    pi_size = samples * sum(len(t) for t in distinct_symbols(max_m))
    if report.get("pi_size") != pi_size:
        problems.append(f"density: pi_size {report.get('pi_size')}, expected {pi_size}")
    for series in ("pi_distances", "disk_distances"):
        got = report.get(series, {})
        want = reference[series]
        if set(got) != set(want):
            problems.append(f"density: {series} keys {sorted(got)} != {sorted(want)}")
            continue
        worst = max(abs(got[n] - want[n]) for n in want)
        if worst > DISTANCE_ABS:
            problems.append(f"density: {series} off the baseline values by {worst:.3e}")
    queries = (max_n - 1) * (pi_size + disk_grid_size(params["disk_step"]))
    return queries, problems


def _continuant_residuals(pattern: str, values: np.ndarray) -> np.ndarray:
    """|det(T - lam)| / S for the sign matrix T with this subdiagonal, where
    S bounds |det| through the same recursion in absolute values."""
    az = np.abs(values)
    d_prev, d_cur = np.ones_like(values), -values
    s_prev, s_cur = np.ones_like(az), az
    for s in _signs(pattern):
        d_prev, d_cur = d_cur, -values * d_cur - s * d_prev
        s_prev, s_cur = s_cur, az * s_cur + s_prev
    return np.abs(d_cur) / np.where(s_cur > 0, s_cur, 1.0)


def check_embed(path: str, k: str, n: int) -> tuple[int, list[str]]:
    """Targets of ``embed --k k --n n --witness``; items = targets verified."""
    label = f"embed k={k} n={n}"
    try:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        return 0, [f"{label}: {exc}"]
    keff = even_parity(k)
    m = len(keff)
    tol = result["params"]["tol"]
    js = [j for j in range(1, n) if 2 * j != n]
    problems = []
    if result.get("verified") is not True:
        problems.append(f"{label}: verified is {result.get('verified')!r}")
    truncation = (keff * n)[1 : n * m - 1]
    if result.get("l") != truncation:
        problems.append(f"{label}: truncation pattern differs")
    targets = result.get("targets", [])
    values = np.array([complex(t["re"], t["im"]) for t in targets])
    tags = [t["tag"] for t in targets]
    phis = 2.0 * np.pi * np.array(js) / n
    traces = power_traces(symbol_stack(keff, phis), POWERS)
    expected = {f"target:j={j}": (m, traces[:, i]) for i, j in enumerate(js)}
    problems += compare_groups(values, tags, expected, label)
    if values.size:
        worst = float(_continuant_residuals(truncation, values).max())
        if worst > tol:
            problems.append(f"{label}: target residual {worst:.3e} above tol {tol:.0e}")
    witnesses = result.get("witnesses") or []
    if len(witnesses) != len(targets):
        problems.append(f"{label}: {len(witnesses)} witnesses for {len(targets)} targets")
    elif witnesses and max(w["residual"] for w in witnesses) > tol:
        problems.append(f"{label}: witness residual above tol {tol:.0e}")
    return values.size, problems
