"""End-to-end CLI behavior through main(argv): output formats, manifests,
and the exit-code contract."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signspectra import cli_io
from signspectra.cli_io import main, write_cloud_csv
from signspectra.cloud import SpectrumCloud
from signspectra.embed import verify_embedding
from signspectra.errors import ParseError
from signspectra.finite import finite_eigenvalues
from signspectra.signmodel import parse_sign_vector
from signspectra.symbol import SAMPLES_CAP

from oracles import (
    all_sign_vectors,
    csv_text_by_point,
    embed_json_text,
    json_text_by_point,
    read_cloud_csv,
    svg_circles_by_point,
    tags,
)


def _text(blocks) -> str:
    return b"".join(blocks).decode("utf-8")


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_normalize_finite(capsys):
    assert main(["normalize", "--k", "+-", "--l=-+"]) == 0
    assert _lines(capsys) == ["--"]
    assert main(["normalize", "--k", "+", "--l", "+"]) == 0
    assert _lines(capsys) == ["+"]


def test_normalize_periodic_doubles(capsys):
    assert main(["normalize", "--k", "+", "--l=-", "--periodic"]) == 0
    assert _lines(capsys) == ["--", "period doubled: 1 -> 2"]
    # unequal lengths are refused as given, before the doubling
    assert main(["normalize", "--k", "+", "--l=-+", "--periodic"]) == 2
    assert "k length 1 != l length 2" in capsys.readouterr().err


def test_spectrum_finite_stdout(capsys):
    assert main(["spectrum", "--mode", "finite", "--k", "+"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "re,im,tag"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    assert all(r[2] == "fin:n=1" for r in rows)
    got = np.sort_complex([float(r[0]) + 1j * float(r[1]) for r in rows])
    assert np.allclose(got, [-1, 1], atol=1e-12)


def test_spectrum_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "plus.csv"
    assert main(["spectrum", "--mode", "finite", "--k", "+", "--out", str(out)]) == 0
    cloud = read_cloud_csv(str(out))
    want = finite_eigenvalues(parse_sign_vector("+")).sorted()
    assert np.array_equal(cloud.values(), want.values())
    assert tags(cloud) == tags(want)


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_csv_text_matches_formatting_each_point(monkeypatch, block):
    # each distinct magnitude is formatted once over both columns and the sign
    # is printed apart, so -0.0 and 0.0 must still print apart, a nan with its
    # sign bit set must print "nan", and 1/3 must print "-" only where negative
    monkeypatch.setattr(cli_io, "_CSV_BLOCK", block)
    values = [0.0, -0.0, complex(-0.0, -0.0), np.inf, complex(np.nan, 1.0), 5e-324,
              -2.5, 1 / 3, complex(1 / 3, -1 / 3), 0.1 + 0.2,
              complex(np.copysign(np.nan, -1), -np.inf), complex(1e-31, -1e17)]
    codes = [1, 0, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    cloud = SpectrumCloud(values, codes, ["a", "b=1", "per:m=2"])
    assert np.signbit(cloud.values()[10].real)
    want = csv_text_by_point(cloud)
    assert _text(cli_io._csv_blocks(cloud)) == want
    assert "-0,-0,per:m=2\n" in want and "\n0,0,b=1\n" in want
    assert "\nnan,-inf,b=1\n1.0000000000000001e-31,-1e+17,per:m=2\n" in want
    assert "\n0.33333333333333331,-0.33333333333333331,per:m=2\n" in want
    assert _text(cli_io._csv_blocks(SpectrumCloud())) == "re,im,tag\n"


@pytest.mark.parametrize("size", [3, 4, 5])
def test_written_csv_is_the_csv_text(tmp_path, monkeypatch, size):
    # blocks are written as they are made; the file must equal the text at
    # one short block, whole blocks only, and one point past them
    monkeypatch.setattr(cli_io, "_CSV_BLOCK", 4)
    five = finite_eigenvalues(parse_sign_vector("+-+-+"))
    cloud = SpectrumCloud(five.values()[:size], five.codes()[:size], five.table())
    path = tmp_path / "c.csv"
    write_cloud_csv(cloud, str(path))
    assert path.read_bytes() == b"".join(cli_io._csv_blocks(cloud))
    write_cloud_csv(SpectrumCloud(), str(path))
    assert path.read_bytes() == b"re,im,tag\n"


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_any_float, _any_float, st.integers(0, 2)), max_size=12),
    st.lists(st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\0"),
                     max_size=6),
             min_size=3, max_size=3, unique=True),
    st.sampled_from([1, 2, 5, 4096]),
)
def test_csv_and_svg_text_match_formatting_each_point(points, tags, block):
    cloud = SpectrumCloud([complex(re, im) for re, im, _ in points],
                          [code for _, _, code in points], sorted(tags))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_io, "_CSV_BLOCK", block)
        assert _text(cli_io._csv_blocks(cloud)) == csv_text_by_point(cloud)
        svg = _text(cli_io._svg_blocks(cloud))
    circles = svg.split("/>\n", 1)[1]
    assert circles == svg_circles_by_point(cloud) + "</svg>\n"


def test_empty_json_collections_and_reprs():
    # an empty list or dict prints as json.dumps(indent=2) prints it, and
    # each repr names its content
    for empty in ([], {}):
        assert cli_io._json_items(empty, "    ") == json.dumps(empty, indent=2)
    assert repr(parse_sign_vector("+-+")) == "SignVector('+-+')"
    assert repr(SpectrumCloud.from_values([1.0, 2j, 0], "t")) == "SpectrumCloud(3 points)"


# JSON clouds hold solved roots only, so every float is finite
_finite_float = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True) | \
    st.sampled_from([-0.0, 5e-324, 1e16, 0.1 + 0.2])
_json_tag = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\é∞'),
                    max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_finite_float, _finite_float, st.integers(0, 2)), max_size=12),
    st.lists(_json_tag, min_size=3, max_size=3, unique=True),
    st.dictionaries(st.sampled_from(["command", "points", "k", "tol"]),
                    _finite_float | _json_tag, max_size=3),
    st.sampled_from([1, 2, 5, 4096]),
)
def test_json_blocks_match_encoding_each_point(points, tags, params, block):
    cloud = SpectrumCloud([complex(re, im) for re, im, _ in points],
                          [code for _, _, code in points], sorted(tags))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_io, "_CSV_BLOCK", block)
        assert _text(cli_io._json_blocks(cloud, params)) == json_text_by_point(cloud, params)
        empty = SpectrumCloud()
        assert _text(cli_io._json_blocks(empty, params)) == json_text_by_point(empty, params)


# one run of every output kind: csv, svg and json clouds, embed and density
EVERY_OUTPUT = [
    pytest.param(["enumerate", "--n", "3"], id="enumerate-csv"),
    pytest.param(["spectrum", "--mode", "finite", "--k", "+-+", "--format", "svg"], id="svg"),
    pytest.param(["spectrum", "--mode", "periodic", "--k=+-", "--samples", "5",
                  "--format", "json"], id="json"),
    pytest.param(["embed", "--k", "+-", "--n", "4", "--witness"], id="embed"),
    pytest.param(["density", "--max-n", "3", "--max-m", "1", "--samples", "17",
                  "--disk-step", "0.5"], id="density"),
]


def test_outputs_are_reproducible(tmp_path):
    for i, param in enumerate(EVERY_OUTPUT):
        argv = param.values[0]
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        for path in (a, b):
            assert main([*argv, "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / f"a{i}.manifest.json").read_text())
        assert set(manifest) == {"command", "outputs", "params", "version", "wall_time_s"}
        assert manifest["command"] == argv[0] == manifest["params"]["command"]
        assert manifest["outputs"][0]["path"] == str(a)
        assert manifest["outputs"][0]["sha256"] == hashlib.sha256(a.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", EVERY_OUTPUT)
def test_stdout_is_exactly_the_out_file(tmp_path, capsysbinary, argv):
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    assert out == path.read_bytes() != b""


def test_spectrum_json_format(tmp_path):
    out = tmp_path / "cloud.json"
    args = ["spectrum", "--mode", "periodic", "--k", "+", "--samples", "3"]
    assert main([*args, "--format", "json", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"params", "points", "warnings"}
    assert obj["params"]["mode"] == "periodic"
    assert obj["params"]["samples"] == 3
    assert len(obj["points"]) == 3
    assert {p["re"] for p in obj["points"]} == {-2.0, 0.0, 2.0}
    # sorted keys make the file diffable between runs
    assert out.read_text().index('"params"') < out.read_text().index('"points"')


def test_svg_output(tmp_path):
    out = tmp_path / "sigma1.svg"
    assert main(["enumerate", "--n", "1", "--format", "svg", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert 'viewBox="-2.2 -2.2 4.4 4.4"' in text
    assert 'fill="white"' in text
    assert text.count("<circle") == 4
    assert text.rstrip().endswith("</svg>")


def _err_lines(capsys):
    return capsys.readouterr().err.strip().splitlines()


def test_enumerate_counters(capsys):
    assert main(["enumerate", "--n", "1"]) == 0
    lines = _err_lines(capsys)
    assert "points: 4" in lines
    assert any(line.startswith("wall_time_s:") for line in lines)
    assert main(["enumerate", "--n", "2", "--accumulate"]) == 0
    assert "points: 16" in _err_lines(capsys)
    # snapping collapses shared eigenvalues (six exact zeros, repeats of +-1)
    assert main(["enumerate", "--n", "2", "--accumulate", "--dedup"]) == 0
    assert "points: 9" in _err_lines(capsys)


def test_periodic_spectrum_period_34(capsys):
    # 17 minus signs double to period 34
    args = ["spectrum", "--mode", "periodic", "--k=-----------------", "--samples", "5"]
    assert main(args) == 0
    lines = _lines(capsys)
    assert lines[0] == "re,im,tag"
    assert len(lines) == 1 + 34 * 5


def test_periodic_spectrum_period_68(capsys):
    # 17 minus signs double "+-" x 17 to period 68; the start circle of
    # radius 1 + max|c| overflowed Horner here and the CLI exited 3
    args = ["spectrum", "--mode", "periodic", "--k=" + "+-" * 17, "--samples", "5"]
    assert main(args) == 0
    lines = _lines(capsys)
    assert lines[0] == "re,im,tag"
    assert len(lines) == 1 + 68 * 5


def test_bare_double_minus_pattern(tmp_path, capsys):
    # argparse strips a bare "--" option value; the --k=/--l= spelling keeps it
    assert main(["normalize", "--k=--", "--l=++"]) == 0
    assert _lines(capsys) == ["--"]
    assert main(["normalize", "--k=+-", "--l=--", "--periodic"]) == 0
    assert _lines(capsys) == ["-+"]
    assert main(["spectrum", "--mode", "finite", "--k=--"]) == 0
    assert len(_lines(capsys)) == 1 + 3
    out = tmp_path / "defect.json"
    assert main(["embed", "--k=--", "--n", "3", "--witness", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["params"]["k"] == "--"
    assert obj["m_effective"] == 2
    assert obj["verified"] is True


def test_embed_json_contract(capsys):
    assert main(["embed", "--k", "+", "--n", "4", "--witness"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verified"] is True
    assert obj["l"] == "++"
    assert obj["m_effective"] == 1
    assert [e["j"] for e in obj["excluded"]] == [2, 4]
    assert obj["warnings"] == []
    for w in obj["witnesses"]:
        assert w["first_component"] <= 1e-10
        assert w["residual"] <= 1e-6


@pytest.mark.parametrize("text,n", [("+", 4), ("+-", 7), ("-++", 8), ("+--+-", 5), ("-", 3)])
@pytest.mark.parametrize("witness", [False, True])
def test_embed_text_is_the_json_encoding(text, n, witness):
    # odd and even n, odd and even parity, with and without witnesses
    result = verify_embedding(parse_sign_vector(text), n)
    params = {"command": "embed", "k": text, "n": n, "tol": 1e-8, "witness": witness}
    assert cli_io._embed_text(result, params) == embed_json_text(result, params)


def test_embed_text_spells_non_finite_values_as_json_does():
    # no solve gives them today; if one does, the bytes must still be json's
    nan, inf = float("nan"), float("inf")
    result = verify_embedding(parse_sign_vector("+-"), 5)
    excluded_values = result.excluded_values.copy()
    excluded_values[0, 0] = complex(inf, nan)
    excluded_residuals = result.excluded_residuals.copy()
    excluded_residuals[0, 0] = nan
    odd = dataclasses.replace(
        result,
        targets=SpectrumCloud.from_values(np.array([complex(nan, -inf), inf, 0.5]), "target:j=1"),
        residuals=(nan, inf, -inf, *result.residuals[3:]),
        worst_residual=inf,
        witness_residuals=(-inf, nan, inf, *result.witness_residuals[3:]),
        excluded_values=excluded_values,
        excluded_residuals=excluded_residuals,
    )
    params = {"command": "embed", "k": "+-", "n": 5, "tol": nan, "witness": True}
    text = cli_io._embed_text(odd, params)
    assert text == embed_json_text(odd, params)
    assert {"NaN", "Infinity", "-Infinity"} <= set(text.replace(",", "").split())


def test_density_command(tmp_path, capsys):
    args = [
        "density",
        "--max-n", "3",
        "--max-m", "1",
        "--samples", "17",
        "--disk-step", "0.5",
    ]
    assert main(args) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["command"] == "density"
    assert set(obj["pi_distances"]) == {"2", "3"}
    out = tmp_path / "density.json"
    assert main([*args, "--out", str(out)]) == 0
    assert (tmp_path / "density.json.manifest.json").exists()


def test_density_manifest_records_tol_and_command(tmp_path):
    # the data file keeps its four report params, so its bytes do not move
    args = ["density", "--max-n", "3", "--max-m", "1", "--samples", "17", "--disk-step", "0.5"]
    manifests = []
    for tol in ("1e-10", "1e-12"):
        out = tmp_path / f"density{tol}.json"
        assert main(["--tol", tol, *args, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data["params"]) == {"disk_step", "max_m", "max_n", "samples"}
        manifest = json.loads((tmp_path / f"density{tol}.json.manifest.json").read_text())
        assert manifest["params"] == {**data["params"], "command": "density", "tol": float(tol)}
        manifests.append(manifest["params"])
    assert manifests[0] != manifests[1]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every signspectra line of the README's "Command line" block, with its
    # continuation lines joined, exits 0 in a temporary working directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("signspectra ")]
    assert {argv[0] for argv in commands} == {"normalize", "spectrum", "enumerate", "embed", "density"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def test_parser_is_built_once_and_not_at_import(capsys):
    # a fresh interpreter: importing the CLI must not build the parser
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    probe = "import signspectra.cli_io as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "0", out.stderr
    assert main(["normalize", "--k", "+-", "--l", "++"]) == 0
    assert main(["normalize", "--k=--", "--l=++"]) == 0
    assert cli_io._parser() is cli_io._parser()
    assert cli_io._parser.cache_info().currsize == 1
    assert cli_io.build_parser() is not cli_io.build_parser()
    capsys.readouterr()


def test_exit_codes(tmp_path, capsys):
    assert main(["spectrum", "--mode", "finite", "--k", "+x"]) == 2
    assert main(["enumerate", "--n", "20"]) == 2
    assert main(["embed", "--k", "+", "--n", "100000000"]) == 2
    assert main(["spectrum", "--mode", "finite", "--k=" + "+" * 65]) == 2
    # global flags come before the subcommand; the charpoly of +++ is
    # x^4 - 3x^2 + 1, iterated as mu^2 - 3mu + 1 (that of ++ is solved exactly)
    assert main(["--tol", "1e-30", "spectrum", "--mode", "finite", "--k", "+++"]) == 3
    capsys.readouterr()
    bad = str(tmp_path / "missing_dir" / "x.csv")
    assert main(["spectrum", "--mode", "finite", "--k", "+", "--out", bad]) == 4
    assert "i/o failure" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan", "1"])
def test_tol_outside_the_unit_interval_is_refused(capsys, tol):
    # inf once printed eigenvalues 0.17 off; 0, -1 and nan ran 200 iterations
    assert main(["--tol", tol, "enumerate", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def test_density_max_m_below_one_is_refused(capsys):
    args = ["density", "--max-n", "3", "--max-m", "0", "--samples", "17", "--disk-step", "0.5"]
    assert main(args) == 2
    assert "max_m must be at least 1" in capsys.readouterr().err


def test_union_max_m_below_one_is_refused(capsys):
    # a header-only CSV came out before
    assert main(["spectrum", "--mode", "periodic", "--union-max-m", "0", "--samples", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_m must be at least 1" in captured.err


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_disk_step_not_finite_is_refused(capsys, step):
    args = ["density", "--max-n", "3", "--max-m", "1", "--samples", "17", "--disk-step", step]
    assert main(args) == 2
    assert "disk grid step must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,err",
    [
        pytest.param(["spectrum", "--mode", "periodic", "--k=+", "--samples", "1"],
                     "samples must be at least 2", id="samples-1"),
        pytest.param(["embed", "--k=+", "--n", "2"], "n must be at least 3", id="embed-n2"),
        pytest.param(["embed", "--k=++", "--n", "2"], "n must be at least 3", id="embed-n2-m2"),
        # flags that a run would otherwise leave out of its output
        pytest.param(["spectrum", "--mode", "periodic", "--k=+", "--union-max-m", "2"],
                     "--union-max-m", id="union-with-k"),
        pytest.param(["spectrum", "--mode", "finite", "--k=+", "--union-max-m", "2"],
                     "--union-max-m", id="union-finite-with-k"),
        pytest.param(["spectrum", "--mode", "finite", "--union-max-m", "2"],
                     "--union-max-m", id="union-finite"),
        pytest.param(["spectrum", "--mode", "finite", "--k=+", "--samples", "5"],
                     "--samples", id="samples-finite"),
        pytest.param(["--cap", "3", "density", "--max-n", "4", "--max-m", "1", "--samples",
                      "3", "--disk-step", "1"], "max_n capped at 3", id="density-above-cap"),
        pytest.param(["density", "--max-n", "3", "--max-m", "1", "--samples", "17",
                      "--disk-step", "1e-9"], "disk grid step 1e-09", id="disk-step-1e-9"),
        pytest.param(["spectrum", "--mode", "finite"], "finite mode needs --k", id="finite-no-k"),
        pytest.param(["spectrum", "--mode", "periodic"], "periodic mode needs --k or --union-max-m",
                     id="periodic-no-k"),
        # a header-only CSV came out before
        pytest.param(["enumerate", "--n", "0", "--accumulate"], "n must be at least 1",
                     id="enumerate-n0-accumulate"),
        pytest.param(["enumerate", "--n", "-3", "--accumulate"], "n must be at least 1",
                     id="enumerate-n-3-accumulate"),
        # the cap plus one allocates nothing; a large count died on memory
        pytest.param(["spectrum", "--mode", "periodic", "--k=+", "--samples",
                      str(SAMPLES_CAP + 1)],
                     f"{SAMPLES_CAP + 1} angle samples above cap {SAMPLES_CAP}",
                     id="samples-above-cap"),
        pytest.param(["spectrum", "--mode", "periodic", "--union-max-m", "2", "--samples",
                      str(SAMPLES_CAP + 1)], "angle samples above cap",
                     id="union-samples-above-cap"),
        pytest.param(["density", "--max-n", "3", "--max-m", "1", "--samples",
                      str(SAMPLES_CAP + 1), "--disk-step", "0.5"], "angle samples above cap",
                     id="density-samples-above-cap"),
    ],
)
def test_refused_input_writes_no_stdout(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert err in captured.err


def test_refused_enumerate_writes_no_file(capsys, tmp_path):
    # --accumulate with n below 1 wrote a header-only CSV and its manifest
    for n in ("0", "-3"):
        out = tmp_path / f"sigma{n}.csv"
        assert main(["enumerate", "--n", n, "--accumulate", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_enumerate_cap_flag(capsys):
    assert main(["--cap", "4", "enumerate", "--n", "5"]) == 2
    capsys.readouterr()
    assert main(["--cap", "5", "enumerate", "--n", "5"]) == 0
    assert "points: 192" in _err_lines(capsys)


def test_read_cloud_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,label\n1,2,a\n")
    with pytest.raises(ParseError):
        read_cloud_csv(str(path))


def test_write_read_cloud_csv_is_lossless(tmp_path):
    cloud = finite_eigenvalues(parse_sign_vector("-+-"))
    path = tmp_path / "c.csv"
    write_cloud_csv(cloud, str(path))
    back = read_cloud_csv(str(path))
    assert np.array_equal(back.values(), cloud.values())


def test_periodic_samples_default_to_257(capsysbinary):
    assert main(["spectrum", "--mode", "periodic", "--k=+-+", "--format", "json"]) == 0
    out = capsysbinary.readouterr().out
    assert json.loads(out)["params"]["samples"] == 257
    assert hashlib.sha256(out).hexdigest()[:16] == "81fbc0cca8c036d0"


# sha256 of outputs, last pinned when the root finder began solving even
# rows in x^2 and moved points (after checking them against mpmath), and
# for embed-witness when each witness residual became the closed form of
# the circulant's two boundary rows plus the bound on the rounding of the
# others (checked against the dense defect of the oracle's vectors); any
# change to the points, ordering, tie-breaking or formatting shows here.
# Cases are named by command, not by digest, so a re-pin keeps the test ids.
PINNED_OUTPUT_SHA256 = [
    pytest.param(
        ["enumerate", "--n", "10", "--accumulate"],
        "1e6e50ffd274a4272a06b31fa641696a7ad659f6aa075e16e691f476c078999e",
        id="enumerate-n10-accumulate",
    ),
    pytest.param(
        ["enumerate", "--n", "10", "--accumulate", "--format", "json"],
        "c41f870a5964c5548d95fdf6e8dcabacfae06ad371d73e4915a74768835af060",
        id="enumerate-n10-accumulate-json",
    ),
    pytest.param(
        ["enumerate", "--n", "10", "--accumulate", "--format", "svg"],
        "e601be4a5c2b99afbc77cf5491390ed589c74c681be3974e03390abba000280d",
        id="enumerate-n10-accumulate-svg",
    ),
    pytest.param(
        ["enumerate", "--n", "9", "--accumulate", "--dedup"],
        "95f275062417190412b6be21a0f334d39ebb65b0a8ece09aec6bde591104fd87",
        id="enumerate-n9-accumulate-dedup",
    ),
    pytest.param(
        ["spectrum", "--mode", "periodic", "--union-max-m", "4", "--samples", "17",
         "--format", "json"],
        "81494748487b7e13650c3dda4405a4e601bf31434e17ce5858af7750c0fb2cd8",
        id="spectrum-union4-json",
    ),
    pytest.param(
        ["density", "--max-n", "8", "--max-m", "4", "--samples", "257", "--disk-step", "0.1"],
        "4e3d19c6d657c5f18e9ec61d30bcd91cb9e4955e4d081ff6826bf9b40bba90fc",
        id="density-n8-m4",
    ),
    pytest.param(
        ["embed", "--k=+-+-", "--n", "7", "--witness"],
        "4213d9eb5c2e661fdf99f29197e711b778d0effe1797d3bfc7689deb11c815b5",
        id="embed-witness",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT_SHA256)
def test_outputs_match_pinned_digests(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 prefixes of the stdout of six runs that cover every subcommand
# writing data, and of two single-pattern periodic spectra; the same list
# stands in ROADMAP.md and is re-pinned only under the accuracy gate that
# also governs PINNED_OUTPUT_SHA256
STANDING_STDOUT_SHA256 = [
    (["enumerate", "--n", "14", "--accumulate"], "fd5a02f73d5e5325"),
    (["enumerate", "--n", "15"], "f08924ac23c85d3a"),
    (["enumerate", "--n", "12", "--accumulate", "--dedup", "--format", "svg"],
     "5b43fd36ac2b4ff1"),
    (["density", "--max-n", "12", "--max-m", "6", "--samples", "257", "--disk-step", "0.05"],
     "20f2cb2a6387a4c3"),
    (["spectrum", "--mode", "periodic", "--union-max-m", "8", "--samples", "257"],
     "1be128467ea7bf08"),
    (["embed", "--k=+-+-", "--n", "7", "--witness"], "4213d9eb5c2e661f"),
    (["spectrum", "--mode", "periodic", "--k=+--", "--samples", "257"], "142bcd051a883da3"),
    (["spectrum", "--mode", "periodic", "--k=+-++", "--samples", "257"], "83b6b79df187b9c0"),
]


@pytest.mark.slow
def test_standing_stdout_digests(capsys):
    got = []
    for argv, _ in STANDING_STDOUT_SHA256:
        assert main(["--threads", "1", *argv]) == 0, argv
        out = capsys.readouterr().out
        got.append(hashlib.sha256(out.encode("utf-8")).hexdigest()[:16])
    assert got == [digest for _, digest in STANDING_STDOUT_SHA256]


# sha256 over the exit code and stdout of 744 embed runs: every pattern of
# period <= 5 at n in {3, 4, 5, 7, 8, 10}, one digest over the 372 runs
# without --witness and one over the 372 with it, so any change of embed's
# bytes or exit codes shows here.  The first was pinned while embed still
# solved both angles of each mirrored pair and encoded its JSON with
# json.dumps(indent=2); the second when the witness residuals became the
# closed form of the circulant's boundary rows plus a rounding bound
EMBED_SWEEP_SHA256 = {
    False: "e34b8adfdbc8c8681cdc7c5d6068aca31f1ebc70ad956a32198afe9bf1bcb1ed",
    True: "e7f78a0f276932b17188c2cde310c2d049dce126426d407f67df0447e2b2bb12",
}


@pytest.mark.slow
def test_embed_stdout_digest_over_every_short_pattern(capsysbinary):
    sha = {witness: hashlib.sha256() for witness in EMBED_SWEEP_SHA256}
    for m in range(1, 6):
        for k in all_sign_vectors(m):
            for n in (3, 4, 5, 7, 8, 10):
                for witness in sha:
                    flag = ["--witness"] if witness else []
                    code = main(["embed", f"--k={k.to_text()}", "--n", str(n), *flag])
                    sha[witness].update(b"%d\n" % code + capsysbinary.readouterr().out)
    assert {witness: h.hexdigest() for witness, h in sha.items()} == EMBED_SWEEP_SHA256
