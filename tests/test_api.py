"""The package namespace exports the pipeline and nothing else; the test
oracles live in tests/oracles.py."""

from __future__ import annotations

import signspectra
import signspectra.errors

PIPELINE = {
    "__version__",
    # errors
    "CapExceededError",
    "ConvergenceError",
    "ParseError",
    # sign patterns and gauges
    "PeriodicOperatorSpec",
    "SignVector",
    "ensure_even_parity",
    "gauge_normalize_finite",
    "gauge_normalize_periodic",
    "ones",
    "parse_sign_vector",
    # exact polynomials and roots
    "IntPolynomial",
    "roots",
    "roots_many",
    # finite spectra
    "charpoly_eval_many",
    "charpoly_finite",
    "enumerate_sigma",
    "finite_eigenvalues",
    # symbols and periodic spectra
    "SymbolPolynomial",
    "periodic_spectrum",
    "preimages",
    "symbol_array",
    "symbol_poly",
    "two_cos_pi",
    # embedding
    "EmbeddingResult",
    "ExcludedTarget",
    "Witness",
    "block_circulant_charpoly",
    "build_block_circulant",
    "target_set",
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
