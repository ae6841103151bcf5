"""Command-line interface, file emitters, and run manifests.

Every output is a generator of byte blocks, written once by `_emit`: to
stdout, or with ``--out`` to the file, hashed as the blocks are written,
and then the side-car manifest `<out>.manifest.json` (command, params,
version, wall time and that sha256).  Timing never goes into data files.

Determinism contract: identical invocations produce byte-identical CSV,
JSON, and SVG data files.  Clouds are sorted before emission, JSON keys are
lexicographic.  CSV floats are printed as ``'%.17g'`` prints them (17 digits,
enough to read back the same double), computed over arrays by `_format_17g`,
which leaves to ``'%'`` zero, non-finite and out-of-range values and those
within 2**-46 of a tie; SVG coordinates by ``'%.6g'``, JSON floats by ``repr``.

Exit codes: 0 success/verified, 1 verification failure, 2 usage error,
3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .cloud import SpectrumCloud
from .density import density_report, periodic_union
from .embed import EMBED_TOL, verify_embedding
from .errors import ConvergenceError
from .finite import ENUMERATION_CAP, enumerate_sigma, finite_eigenvalues
from .polyroot import DEFAULT_TOL
from .signmodel import gauge_normalize_finite, gauge_normalize_periodic, parse_sign_vector
from .symbol import periodic_spectrum

__all__ = [
    "main",
    "build_parser",
    "write_cloud_csv",
    "write_manifest",
]

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# rows assembled per block of bytes
_CSV_BLOCK = 1 << 12


def _lines_table(text: str) -> np.ndarray:
    """One uint8 row per newline-terminated line of `text`, newline dropped,
    padded with NUL bytes to the longest line."""
    buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    widths = np.diff(ends, prepend=-1) - 1
    mask = np.arange(widths.max(initial=0)) < widths[:, None]
    table = np.zeros(mask.shape, dtype=np.uint8)
    table[mask] = np.delete(buf, ends)
    return table


def _constant(text: str):
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)[None, :], None


# indexed by the sign bit: row 0 is padding alone, row 1 is "-"
_SIGN = np.array([[0], [ord("-")]], dtype=np.uint8)


_LOW, _FMT_CHUNK, _TIE = -270, 1 << 13, 2.0**-46  # '%.17g' over arrays: see `_format_17g`


@functools.cache
def _format_tables():  # 10**(16 - X) = hi + lo for _LOW <= X < 16, digits of 0 ... 9999
    hi = np.array([float(10 ** (16 - X)) for X in range(_LOW, 16)])
    lo = np.array([float(10 ** (16 - X) - int(h)) for X, h in zip(range(_LOW, 16), hi)])
    return hi, lo, np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)), np.uint32)


def _format_17g(mags: np.ndarray) -> np.ndarray:
    """`_lines_table` of ``'%.17g' % x`` for each float x of `mags`, computed over arrays.

    For 10**_LOW <= x < 1e16 and X = floor(log10 x), Dekker's TwoProduct of x and the
    double-double hi + lo = 10**(16 - X) gives V = x * 10**(16 - X) as an integer p plus
    a double c, |p + c - V| <= 2u^2 V + 20u < 2**-47 (u = 2**-53; |c| < 20).  Where
    floor(p + c) is in [1e16, 1e17) and the fraction of p + c is not within _TIE of 1/2,
    the integer nearest V is x's 17 digits, a log10 one off at a power of ten prints
    alike and only a carry to 1e17 raises X.  '%' prints the rest, exact ties such as
    1 + 2**-17 among them.  Layout as '%g': fixed for -4 <= X < 17, else d.ddde-XX,
    trailing zeros cut.
    """
    hi, lo, lut = _format_tables()  # built on the first call, not at import
    out = np.zeros((mags.size, 24), np.uint8)  # 24: '-1.7976931348623157e+308'
    fast = (mags >= 10.0**_LOW) & (mags < 1e16)
    for a in range(0, mags.size, _FMT_CHUNK):
        x = np.where(fast[a : a + _FMT_CHUNK], mags[a : a + _FMT_CHUNK], 1.0)
        k = np.clip(np.floor(np.log10(x)).astype(np.int64) - _LOW, 0, hi.size - 1)
        h, p = hi[k], x * hi[k]
        xh, hh = x * 134217729.0 - (x * 134217729.0 - x), h * 134217729.0 - (h * 134217729.0 - h)
        xl, hl = x - xh, h - hh  # Dekker's splits into 26-bit high parts and the rest
        c = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * lo[k]  # p + c = x (h + lo)
        floor, frac = p.astype(np.int64) + np.floor(c).astype(np.int64), c - np.floor(c)
        fast[a : a + x.size] &= (floor >= 10**16) & (floor < 10**17) & (abs(frac - 0.5) > _TIE)
        d = floor + (frac > 0.5)
        X, d = k + _LOW + (d == 10**17), np.where(d == 10**17, 10**16, d)
        digits = lut[d[:, None] // 10 ** np.arange(16, -1, -4) % 10**4].view(np.uint8)[:, 3:]
        s = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)  # significant digits
        digits = digits * (np.arange(17) < np.maximum(s, X + 1)[:, None])
        rows = out[a : a + x.size]
        for e in np.flatnonzero(np.bincount(X - _LOW)) + _LOW:  # one layout per X
            r = np.flatnonzero(X == e)
            r = slice(r[0], r[-1] + 1) if r[-1] - r[0] == r.size - 1 else r
            if e >= 0:  # a '.' only before a digit
                rows[r, : e + 1], rows[r, e + 2 : 18] = digits[r, : e + 1], digits[r, e + 1 :]
                rows[r, e + 1] = 46 * (s[r] > e + 1)
            elif e >= -4:
                rows[r, : 1 - e], rows[r, 1 - e : 18 - e] = list(b"0.000"[: 1 - e]), digits[r]
            else:
                rows[r, 0], rows[r, 1], rows[r, 2:18] = digits[r, 0], 46 * (s[r] > 1), digits[r, 1:]
                r, tail = np.arange(x.size)[r], list(b"e-%02d" % -e)
                rows[r[:, None], (s[r] + (s[r] > 1))[:, None] + np.arange(len(tail))] = tail
    text = _lines_table(("%.17g\n" * (~fast).sum()) % tuple(mags[~fast].tolist()))
    out[~fast] = np.pad(text, ((0, 0), (0, 24 - text.shape[1])))
    return out[:, : next((w for w in range(24, 0, -1) if out[:, w - 1].any()), 0)]


def _number_fields(fmt: str, cloud: SpectrumCloud, *columns) -> list:
    """Sign and magnitude fields of each (x, part) column for `_row_blocks`: |x| is |re|
    (part 0) or |im| (part 1) of `cloud`, each magnitude formatted once, '%.17g' by
    `_format_17g` ('%' off its range and within 2**-46 of a tie), others by '%'.  The sign
    is '-' where the sign bit is set, except on nan (printed 'nan' either way): -0.0 prints '-0'."""
    mags, index = cloud.magnitudes()
    table = (_format_17g(mags) if fmt == "%.17g"
             else _lines_table((f"{fmt}\n" * mags.size) % tuple(mags.tolist())))
    fields = []
    for x, part in columns:
        neg = np.signbit(x) & ~np.isnan(x)
        fields += [(_SIGN, neg.view(np.uint8)), (table, index[part])]
    return fields


def _row_blocks(fields: list, counts: np.ndarray):
    """Yield the bytes of a row per entry, repeated by its count in `counts`,
    `_CSV_BLOCK` entries at a time.

    A field is (table, index): row i takes table row index[i], or table
    row 0 when index is None, and the fields are concatenated in order.
    NUL bytes are padding and are dropped, so no text may hold one.
    """
    for a in range(0, counts.size, _CSV_BLOCK):
        n = min(_CSV_BLOCK, counts.size - a)
        rec = np.concatenate(
            [
                np.broadcast_to(table, (n, table.shape[1])) if index is None
                else table[index[a : a + n]]
                for table, index in fields
            ],
            axis=1,
        )
        rec = np.repeat(rec, counts[a : a + n], axis=0)
        yield rec[rec != 0].tobytes()


def _csv_blocks(cloud: SpectrumCloud, params: dict | None = None):
    v = cloud.values()
    tails = _lines_table("".join(f",{t}\n" for t in cloud.table()))
    re_sign, re, im_sign, im = _number_fields("%.17g", cloud, (v.real, 0), (v.imag, 1))
    fields = [re_sign, re, _constant(","), im_sign, im, (tails, cloud.codes()), _constant("\n")]
    yield b"re,im,tag\n"
    yield from _row_blocks(fields, cloud.counts())


def write_cloud_csv(cloud: SpectrumCloud, path: str) -> None:
    """Write the CSV of `cloud` to `path` block by block, in the cloud's order:
    a header line ``re,im,tag``, then one such line per point (an entry's line
    repeated by its count) with floats by ``'%.17g'``.  Tags hold no newline
    and no NUL."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_blocks(cloud))


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_blocks(cloud: SpectrumCloud, params: dict):
    """The bytes of ``json.dumps({"params", "points", "warnings": []},
    sort_keys=True, indent=2)`` plus a newline, a point being
    ``{"im", "re", "tag"}``; the points come from byte tables, each row led by
    a comma that the first point drops.  No cloud carries warnings; the empty
    list stays so the file format is unchanged.

    Every value must be finite, as the solved roots of a cloud are: floats
    are printed by ``'%r'``, which gives 'nan' and 'inf' where json gives
    'NaN' and 'Infinity'.
    """
    v = cloud.values()
    obj = {"params": params, "points": [], "warnings": []}
    head, points, tail = _json_text(obj).partition('\n  "points": [')
    tags = _lines_table("".join(json.dumps(t) + "\n" for t in cloud.table()))
    im_sign, im, re_sign, re = _number_fields("%r", cloud, (v.imag, 1), (v.real, 0))
    fields = [
        _constant(',\n    {\n      "im": '), im_sign, im,
        _constant(',\n      "re": '), re_sign, re,
        _constant(',\n      "tag": '), (tags, cloud.codes()),
        _constant("\n    }"),
    ]
    rows = _row_blocks(fields, cloud.counts())
    yield (head + points).encode() + next(rows, b",")[1:]
    yield from rows
    yield (tail if v.size == 0 else "\n  " + tail).encode()


def _svg_blocks(cloud: SpectrumCloud, params: dict | None = None):
    v = cloud.values()
    x_sign, x, y_sign, y = _number_fields("%.6g", cloud, (v.real, 0), (-v.imag, 1))
    fields = [
        _constant('<circle cx="'), x_sign, x, _constant('" cy="'), y_sign, y,
        _constant('" r="0.005" fill="black" fill-opacity="0.6"/>\n'),
    ]
    # fixed square viewport covering the attainable square |re|+|im| <= 2
    yield (
        b'<svg xmlns="http://www.w3.org/2000/svg" width="880" height="880" '
        b'viewBox="-2.2 -2.2 4.4 4.4">\n'
        b'<rect x="-2.2" y="-2.2" width="4.4" height="4.4" fill="white"/>\n'
    )
    yield from _row_blocks(fields, cloud.counts())
    yield b"</svg>\n"


# the blocks of a sorted cloud in each --format; only JSON records the params
_CLOUD_BLOCKS = {"csv": _csv_blocks, "svg": _svg_blocks, "json": _json_blocks}


def write_manifest(out_path: str, blocks, params: dict, started: float) -> str:
    """Write `blocks` to `out_path`, hashing the bytes as they are written,
    then the manifest `<out_path>.manifest.json`; return the manifest's path."""
    sha = hashlib.sha256()
    with open(out_path, "wb") as fh:
        for block in blocks:
            sha.update(block)
            fh.write(block)
    manifest = {
        "command": params["command"],
        "outputs": [{"path": out_path, "sha256": sha.hexdigest()}],
        "params": params,
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    manifest_path = f"{out_path}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(manifest))
    return manifest_path


def _emit(out, blocks, params: dict, started: float) -> None:
    """Write `blocks` to stdout, or to `out` with its manifest."""
    if out is None:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(blocks)
        return
    write_manifest(out, blocks, params, started)


def _emit_cloud(cloud: SpectrumCloud, args, params: dict, started: float) -> None:
    blocks = _CLOUD_BLOCKS[args.format](cloud.sorted(), params)
    _emit(args.out, blocks, params, started)


def _cmd_normalize(args) -> int:
    k = parse_sign_vector(args.k)
    l = parse_sign_vector(args.l)
    if args.periodic:
        ktilde = gauge_normalize_periodic(k, l)
        print(ktilde.to_text())
        if len(ktilde) != len(k):
            print(f"period doubled: {len(k)} -> {len(ktilde)}")
    else:
        print(gauge_normalize_finite(k, l).to_text())
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    started = time.monotonic()
    tol = DEFAULT_TOL if args.tol is None else args.tol
    params: dict = {
        "command": "spectrum",
        "format": args.format,
        "mode": args.mode,
        "tol": tol,
    }
    if args.union_max_m is not None and (args.mode == "finite" or args.k is not None):
        raise ValueError("--union-max-m needs --mode periodic and no --k")
    if args.mode == "finite":
        if args.samples is not None:
            raise ValueError("--samples needs --mode periodic")
        if args.k is None:
            raise ValueError("finite mode needs --k")
        cloud = finite_eigenvalues(parse_sign_vector(args.k), tol)
        params["k"] = args.k
    else:
        samples = params["samples"] = 257 if args.samples is None else args.samples
        if args.union_max_m is not None:
            cloud = periodic_union(args.union_max_m, samples, tol)
            params["union_max_m"] = args.union_max_m
        else:
            if args.k is None:
                raise ValueError("periodic mode needs --k or --union-max-m")
            cloud = periodic_spectrum(parse_sign_vector(args.k), samples, tol)
            params["k"] = args.k
    _emit_cloud(cloud, args, params, started)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    started = time.monotonic()
    tol = DEFAULT_TOL if args.tol is None else args.tol
    if args.n < 1:
        raise ValueError("n must be at least 1")
    sizes = range(1, args.n + 1) if args.accumulate else [args.n]
    parts = [enumerate_sigma(n, tol, cap=args.cap) for n in sizes]
    cloud = SpectrumCloud().merged(*parts)
    if args.dedup:
        cloud = cloud.snapped()
    params = {
        "accumulate": bool(args.accumulate),
        "command": "enumerate",
        "dedup": bool(args.dedup),
        "format": args.format,
        "n": args.n,
        "tol": tol,
    }
    _emit_cloud(cloud, args, params, started)
    elapsed = time.monotonic() - started
    print(f"points: {len(cloud)}", file=sys.stderr)
    print(f"wall_time_s: {elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def _json_items(items, pad: str) -> str:
    """A list of encoded items, or a dict of them with its keys sorted, laid
    out as json.dumps(indent=2) does at indent `pad`."""
    brackets = "[]"
    if isinstance(items, dict):
        items, brackets = [f"{json.dumps(k)}: {v}" for k, v in sorted(items.items())], "{}"
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _json_numbers(values) -> list:
    """json's text of each number: repr, or NaN, Infinity and -Infinity."""
    if all(map(math.isfinite, values)):
        return list(map(repr, values))
    return [json.dumps(x) for x in values]


def _json_rows(columns: dict, pad: str) -> str:
    """The array of objects whose member k in row i is the encoded columns[k][i]."""
    keys = sorted(columns)
    row = _json_items(dict.fromkeys(keys, "%s"), pad + "  ")
    return _json_items([row % values for values in zip(*(columns[k] for k in keys))], pad)


def _embed_text(result, params: dict) -> str:
    """The embed result's JSON, byte for byte what ``json.dumps(sort_keys=True,
    indent=2)`` plus a newline prints for it, written directly: json's indent
    encoder is pure Python."""
    v = result.targets.values()
    tags = [json.dumps(t) for t in result.targets.table()]
    excluded = [_json_items({
        "j": str(j),
        "residuals": _json_items(_json_numbers(res.tolist()), "      "),
        "values": _json_rows({"im": _json_numbers(vals.imag.tolist()),
                              "re": _json_numbers(vals.real.tolist())}, "      "),
    }, "    ") for j, vals, res in zip(
        result.excluded_angles, result.excluded_values, result.excluded_residuals)]
    # x_0 = 0 by construction; the field keeps the schema
    witnesses = "null" if not params["witness"] else _json_rows({
        "first_component": ["0.0"] * len(result.witness_residuals),
        "residual": _json_numbers(result.witness_residuals),
        "target_index": _json_numbers(range(len(result.witness_residuals))),
    }, "  ")
    return _json_items({
        "excluded": _json_items(excluded, "  "),
        "l": json.dumps(result.l.to_text()),
        "m_effective": str(result.m),
        "n": str(result.n),
        "params": _json_items({k: json.dumps(x) for k, x in params.items()}, "  "),
        "residuals": _json_items(_json_numbers(result.residuals), "  "),
        "targets": _json_rows({"im": _json_numbers(v.imag.tolist()),
                               "re": _json_numbers(v.real.tolist()),
                               "tag": [tags[c] for c in result.targets.codes().tolist()]}, "  "),
        "verified": json.dumps(result.verified),
        "warnings": "[]",
        "witnesses": witnesses,
        "worst_residual": json.dumps(result.worst_residual),
    }, "") + "\n"


def _cmd_embed(args) -> int:
    started = time.monotonic()
    tol = EMBED_TOL if args.tol is None else args.tol
    k = parse_sign_vector(args.k)
    result = verify_embedding(k, args.n, tol=tol)
    params = {
        "command": "embed",
        "k": args.k,
        "n": args.n,
        "tol": tol,
        "witness": bool(args.witness),
    }
    _emit(args.out, [_embed_text(result, params).encode()], params, started)
    return EXIT_OK if result.verified else EXIT_UNVERIFIED


def _cmd_density(args) -> int:
    started = time.monotonic()
    tol = DEFAULT_TOL if args.tol is None else args.tol
    report = density_report(
        args.max_n, args.max_m, args.samples, args.disk_step, tol=tol, cap=args.cap
    )
    obj = {"command": "density", **report.to_json_dict()}
    # tol and command go into the manifest's params only: the report's bytes stay
    params = {**obj["params"], "command": "density", "tol": tol}
    _emit(args.out, [_json_text(obj).encode()], params, started)
    return EXIT_OK if report.monotone() else EXIT_UNVERIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signspectra",
        description="Spectra of tridiagonal sign matrices and periodic sign operators.",
    )
    parser.add_argument("--tol", type=float, default=None, help="numerical tolerance")
    parser.add_argument(
        "--threads", type=int, default=1, help="ignored; kept so old command lines parse"
    )
    parser.add_argument(
        "--cap", type=int, default=ENUMERATION_CAP, help="enumeration size cap"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="gauge-normalize a sub/super sign pair")
    p.add_argument("--k", required=True, help="subdiagonal pattern, e.g. +-+")
    p.add_argument("--l", required=True, help="superdiagonal pattern")
    p.add_argument("--periodic", action="store_true", help="treat patterns as periodic")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("spectrum", help="finite or periodic spectrum point cloud")
    p.add_argument("--mode", choices=("finite", "periodic"), required=True)
    p.add_argument("--k", default=None, help="sign pattern")
    p.add_argument("--samples", type=int, default=None, help="periodic angle samples (default 257)")
    p.add_argument(
        "--union-max-m",
        type=int,
        default=None,
        help="union of periodic clouds over all patterns up to this period",
    )
    p.add_argument("--out", default=None, help="output file (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("enumerate", help="union of all finite spectra at size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--accumulate", action="store_true", help="union over sizes <= n")
    p.add_argument(
        "--dedup", action="store_true", help="grid-snap dedup at 1e-6 for plotting"
    )
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("embed", help="verify the periodic-to-finite embedding")
    p.add_argument("--k", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness", action="store_true",
                   help="report each target's witness residual on the block circulant")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("density", help="directed Hausdorff density report")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--samples", type=int, default=257)
    p.add_argument("--disk-step", type=float, default=0.1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_density)

    return parser


# built on the first main() call, not at import; parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    # argparse strips a bare "--" from option values, so "--k=--" would arrive
    # empty; take the patterns of the documented --k=/--l= spelling verbatim
    for token in argv:
        if token.startswith(("--k=", "--l=")):
            setattr(args, token[2], token[4:])
    try:
        if args.tol is not None and not 0 < args.tol < 1:
            raise ValueError(f"--tol must lie in the open interval (0, 1), got {args.tol}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
