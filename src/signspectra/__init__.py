"""Spectra of tridiagonal sign matrices and periodic sign operators.

Finite matrices carry +-1 on the two off-diagonals and zero elsewhere;
periodic operators repeat an off-diagonal sign pattern over the integers.
The package computes both kinds of spectra from one polynomial root-finding
kernel, verifies the constructive embedding of periodic spectra into finite
ones, and measures how densely finite spectra fill the periodic ones.
"""

from .cloud import SpectrumCloud
from .errors import (
    CapExceededError,
    ConvergenceError,
    ParseError,
    WitnessDegenerateError,
)
from .signmodel import (
    PeriodicOperatorSpec,
    SignVector,
    TridiagSignMatrix,
    all_sign_vectors,
    dense_matrix,
    ensure_even_parity,
    gauge_normalize_finite,
    gauge_normalize_periodic,
    ones,
    parse_sign_vector,
)
from .polyroot import (
    ComplexPolynomial,
    IntPolynomial,
    evaluate,
    from_roots,
    int_charpoly_oracle,
    match_multisets,
    roots,
    roots_many,
)
from .symbol import (
    SymbolPolynomial,
    periodic_spectrum,
    preimages,
    symbol_array,
    symbol_char_value,
    symbol_char_values,
    symbol_eigenvalues,
    symbol_poly,
    two_cos_pi,
)
from .finite import (
    charpoly_eval_many,
    charpoly_finite,
    enumerate_sigma,
    finite_eigenvalues,
)
from .embed import (
    EmbeddingResult,
    ExcludedTarget,
    Witness,
    block_circulant_charpoly,
    build_block_circulant,
    circulant_factorization_check,
    target_set,
    truncate,
    verify_embedding,
)
from .density import (
    DensityReport,
    density_report,
    directed_hausdorff,
    disk_grid,
    periodic_union,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SpectrumCloud",
    "ParseError",
    "CapExceededError",
    "ConvergenceError",
    "WitnessDegenerateError",
    "SignVector",
    "TridiagSignMatrix",
    "PeriodicOperatorSpec",
    "parse_sign_vector",
    "gauge_normalize_finite",
    "gauge_normalize_periodic",
    "ensure_even_parity",
    "dense_matrix",
    "ones",
    "all_sign_vectors",
    "ComplexPolynomial",
    "IntPolynomial",
    "evaluate",
    "roots",
    "roots_many",
    "from_roots",
    "int_charpoly_oracle",
    "match_multisets",
    "SymbolPolynomial",
    "symbol_array",
    "symbol_char_value",
    "symbol_char_values",
    "symbol_poly",
    "preimages",
    "symbol_eigenvalues",
    "periodic_spectrum",
    "two_cos_pi",
    "charpoly_finite",
    "charpoly_eval_many",
    "finite_eigenvalues",
    "enumerate_sigma",
    "Witness",
    "ExcludedTarget",
    "EmbeddingResult",
    "build_block_circulant",
    "block_circulant_charpoly",
    "circulant_factorization_check",
    "target_set",
    "truncate",
    "verify_embedding",
    "directed_hausdorff",
    "periodic_union",
    "disk_grid",
    "DensityReport",
    "density_report",
]
