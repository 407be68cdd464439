"""roelab: a numerical laboratory for flows on operator algebras over finite
coarse metric spaces.

Finite metric spaces, operators as dense complex matrices, propagation and
quasi-locality analyzers, Hermitian spectral calculus, flow and cocycle
dynamics, sign-group averaging, partial translations, and the expander
pre-flow with its exact discontinuity constants. The library holds what the
CLI and the acceptance criteria call; dense reference oracles live in the
tests.
"""

from .errors import ConfigError, NumericCheckError, SizeGuardError
from .space import FiniteSpace, coarse_union, from_edge_list
from .operator import OperatorMatrix

__all__ = [
    "ConfigError",
    "NumericCheckError",
    "SizeGuardError",
    "FiniteSpace",
    "OperatorMatrix",
    "coarse_union",
    "from_edge_list",
]

__version__ = "0.1.0"
