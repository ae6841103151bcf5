"""Spectra of tridiagonal sign matrices and periodic sign operators.

Finite matrices carry +-1 on the two off-diagonals and zero elsewhere;
periodic operators repeat an off-diagonal sign pattern over the integers.
The package computes both kinds of spectra from one polynomial root-finding
kernel, verifies the constructive embedding of periodic spectra into finite
ones, and measures how densely finite spectra fill the periodic ones.
"""

# Each module's __all__ is its public API; the package re-exports their union.
from . import cloud, density, embed, errors, finite, polyroot, signmodel, symbol
from .cloud import *
from .errors import *
from .signmodel import *
from .polyroot import *
from .symbol import *
from .finite import *
from .embed import *
from .density import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *cloud.__all__,
    *errors.__all__,
    *signmodel.__all__,
    *polyroot.__all__,
    *symbol.__all__,
    *finite.__all__,
    *embed.__all__,
    *density.__all__,
]
