"""End-to-end CLI behavior through main(argv): output formats, manifests,
and the exit-code contract."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from signspectra.cli_io import main, read_cloud_csv, write_cloud_csv
from signspectra.errors import ParseError
from signspectra.finite import finite_eigenvalues
from signspectra.signmodel import parse_sign_vector


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
    assert cloud.tags() == want.tags()


def test_outputs_are_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["enumerate", "--n", "3", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert set(manifest) == {"command", "outputs", "params", "version", "wall_time_s"}
    assert manifest["command"] == "enumerate"
    assert manifest["outputs"][0]["path"] == str(a)
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(a.read_bytes()).hexdigest()


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


def test_svg_to_stdout_matches_file(tmp_path, capsys):
    args = ["spectrum", "--mode", "finite", "--k", "+-+", "--format", "svg"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.count("<circle") == 4
    out = tmp_path / "k.svg"
    assert main([*args, "--out", str(out)]) == 0
    assert text == out.read_text()


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


def test_enumerate_stdout_is_exactly_the_csv(tmp_path, capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "sigma2.csv"
    assert main(["enumerate", "--n", "2", "--out", str(path)]) == 0
    assert out == path.read_text()


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


def test_exit_codes(tmp_path, capsys):
    assert main(["spectrum", "--mode", "finite", "--k", "+x"]) == 2
    assert main(["enumerate", "--n", "20"]) == 2
    assert main(["spectrum", "--mode", "periodic", "--k", "+", "--samples", "1"]) == 2
    assert main(["embed", "--k", "+", "--n", "2"]) == 2
    # global flags come before the subcommand
    assert main(["--tol", "1e-30", "spectrum", "--mode", "finite", "--k", "++"]) == 3
    capsys.readouterr()
    bad = str(tmp_path / "missing_dir" / "x.csv")
    assert main(["spectrum", "--mode", "finite", "--k", "+", "--out", bad]) == 4
    assert "i/o failure" in capsys.readouterr().err


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


# sha256 of outputs, last pinned when the root finder's Cauchy start,
# polishing step and squarefree split moved points (after checking them
# against mpmath); any change to the points, ordering, tie-breaking or
# formatting shows here.
# Cases are named by command, not by digest, so a re-pin keeps the test ids.
PINNED_OUTPUT_SHA256 = [
    pytest.param(
        ["enumerate", "--n", "10", "--accumulate"],
        "6fbd12cef8729e388d1fe34695a1d97213d901aa436050f40d6d47cca58f0a42",
        id="enumerate-n10-accumulate",
    ),
    pytest.param(
        ["enumerate", "--n", "9", "--accumulate", "--dedup"],
        "673d36229a6a37ce040ba23d87978889c8a2d1c7e4628b32054c1432b1f2fc1b",
        id="enumerate-n9-accumulate-dedup",
    ),
    pytest.param(
        ["spectrum", "--mode", "periodic", "--union-max-m", "4", "--samples", "17",
         "--format", "json"],
        "1854460969ed725d419bdf0150f9d0dd739b117c1af67940ecaf844326a0e446",
        id="spectrum-union4-json",
    ),
    pytest.param(
        ["density", "--max-n", "8", "--max-m", "4", "--samples", "257", "--disk-step", "0.1"],
        "824d16148a84e49f7d56f88e8e3d6f7b27bdc7c34e2dfb1de53d23592f6dccb2",
        id="density-n8-m4",
    ),
    pytest.param(
        ["embed", "--k=+-+-", "--n", "7", "--witness"],
        "76c0513bf5468584916942dadffc223314bfad8397639d7a99d967ea1ea0d89f",
        id="embed-witness",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT_SHA256)
def test_outputs_match_pinned_digests(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
