"""The package namespace exports the pipeline and nothing else; the test
oracles live in tests/oracles.py."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import signspectra
import signspectra.embed
import signspectra.errors
from signspectra import ConvergenceError, parse_sign_vector, verify_embedding

PIPELINE = {
    "__version__",
    # errors
    "CapExceededError",
    "ConvergenceError",
    "ParseError",
    # sign patterns and gauges
    "SignVector",
    "ensure_even_parity",
    "gauge_normalize_finite",
    "gauge_normalize_periodic",
    "parse_sign_vector",
    # exact polynomials and roots
    "IntPolynomial",
    "roots_many",
    # finite spectra
    "charpoly_finite",
    "enumerate_sigma",
    "finite_eigenvalues",
    # symbols and periodic spectra
    "periodic_spectrum",
    "preimages",
    "symbol_poly",
    "two_cos_pi",
    # embedding
    "EmbeddingResult",
    "block_circulant_charpoly",
    "truncate",
    "verify_embedding",
    # clouds and density
    "DensityReport",
    "SpectrumCloud",
    "density_report",
    "directed_hausdorff",
    "disk_grid",
    "periodic_union",
}


def test_public_api_is_the_pipeline():
    assert sorted(signspectra.__all__) == sorted(PIPELINE)
    for name in signspectra.__all__:
        assert getattr(signspectra, name) is not None, name


def test_witness_degenerate_error_is_gone():
    # recurrence witnesses have x_1 = 1 and cannot collapse
    assert "WitnessDegenerateError" not in signspectra.__all__
    assert not hasattr(signspectra.errors, "WitnessDegenerateError")


def test_excluded_target_is_gone():
    # the excluded angles are arrays of the result, not objects
    assert "ExcludedTarget" not in signspectra.__all__
    assert not hasattr(signspectra.embed, "ExcludedTarget")


def test_witness_array_is_gone():
    # a witness is reported by its residual alone, computed for every call
    fields = {f.name for f in dataclasses.fields(signspectra.embed.EmbeddingResult)}
    assert "witness_vectors" not in fields and "witness_residuals" in fields
    assert "want_witness" not in inspect.signature(verify_embedding).parameters
    assert not hasattr(signspectra.embed, "_WITNESS_BLOCK")


def test_excluded_arrays_are_read_only():
    # "+-" runs as "+-+-", and n = 6 excludes j = 3 and j = 6
    res = verify_embedding(parse_sign_vector("+-"), 6)
    assert res.excluded_angles == (3, 6)
    for rows in (res.excluded_values, res.excluded_residuals):
        assert rows.shape == (2, 4)
        assert not rows.flags.writeable


def test_convergence_error_at_names_the_caller():
    exc = ConvergenceError("root iteration did not converge", worst_residual=2.5e-3, row=4)
    same = exc.at("stage, pattern +-")
    assert str(same) == "stage, pattern +-: root iteration did not converge"
    assert (same.worst_residual, same.row) == (2.5e-3, 4)
    for row in (9, 0):
        moved = exc.at("outer", row)
        assert str(moved) == "outer: root iteration did not converge"
        assert (moved.worst_residual, moved.row) == (2.5e-3, row)
    assert (str(exc), exc.worst_residual, exc.row) == ("root iteration did not converge", 2.5e-3, 4)


def test_convergence_error_is_built_in_two_places():
    # the root iteration raises it; every stage above reports it through at()
    sites = []
    for path in sorted(Path(signspectra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # ast.walk is breadth-first, so a nested function overwrites
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        sites += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ConvergenceError"
        ]
    assert sorted(sites) == [("errors.py", "at"), ("polyroot.py", "_aberth_batch")]


# exported but not yet called inside the package; the exact inclusion
# certificate on the ROADMAP is to be its first caller
NOT_YET_CALLED = {"block_circulant_charpoly"}


def _package_modules() -> list[ast.Module]:
    paths = sorted(Path(signspectra.__file__).parent.glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _loaded_names() -> set[str]:
    # a name's own def, class or assignment does not count as a use
    used = set()
    for module in _package_modules():
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_inside_the_package():
    # a public name that only tests call belongs in tests/oracles.py
    unused = set(signspectra.__all__) - _loaded_names()
    assert unused == NOT_YET_CALLED


def test_every_private_module_name_is_used_inside_the_package():
    # a module-level _helper or _CONSTANT that nothing in the package reads
    # is dead code, whatever the tests do with it
    private = set()
    for module in _package_modules():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private.update(n for n in names if n.startswith("_") and not n.startswith("__"))
    assert private, "the scan found no private names"
    assert private - _loaded_names() == set()


def test_every_public_field_is_read_inside_the_package():
    # an annotated field of a public class that no code in the package reads
    # as an attribute is data the package builds for the tests alone
    read = set()
    fields = set()
    for module in _package_modules():
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for cls in module.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                fields.update(
                    f"{cls.name}.{node.target.id}"
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                )
    assert fields, "the scan found no public fields"
    assert {f for f in fields if f.split(".")[1] not in read} == set()
