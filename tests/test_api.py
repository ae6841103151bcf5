"""The package namespace exports the pipeline and nothing else; the test
oracles live in tests/oracles.py."""

from __future__ import annotations

import ast
from pathlib import Path

import signspectra
import signspectra.errors

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
    "ExcludedTarget",
    "Witness",
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


# exported but not yet called inside the package; the exact inclusion
# certificate on the ROADMAP is to be its first caller
NOT_YET_CALLED = {"block_circulant_charpoly"}


def test_every_public_name_is_used_inside_the_package():
    # a public name that only tests call belongs in tests/oracles.py; a
    # name's own def, class or assignment does not count as a use
    used = set()
    for path in Path(signspectra.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = set(signspectra.__all__) - used
    assert unused == NOT_YET_CALLED
