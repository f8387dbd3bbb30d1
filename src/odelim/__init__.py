"""Exact minimal differential polynomials for polynomial ODE systems.

Given x' = g(x) with polynomial right-hand sides, compute the unique (up
to scaling) minimal-order, minimal-degree differential polynomial
satisfied by the coordinate x1, via modular evaluation–interpolation
inside an explicit Newton-polytope support bound.
"""

from .arith import CrtAccumulator, rational_reconstruct
from .errors import (
    BadPrimeError,
    BudgetExceededError,
    ComputationError,
    KernelAnomalyError,
    OdelimError,
    ParseError,
    VerificationError,
)
from .interp import EliminationResult, SampleConfig, Verification, eliminate
from .ode import OdeSystem, jet, lie_derivative, order_nu, parse_system, reduction
from .poly import QQ, SparsePoly, VarSpace, parse_derivative_poly, parse_state_poly
from .support import (
    LatticeSet,
    SupportBound,
    bound_inequalities,
    count_lattice,
    enumerate_lattice,
    general_bound_inequality,
    hull_lattice_count,
)
from .verify import certified_eliminate, check_exact, check_probabilistic

__version__ = "0.1.0"

__all__ = [
    "BadPrimeError",
    "BudgetExceededError",
    "ComputationError",
    "CrtAccumulator",
    "EliminationResult",
    "KernelAnomalyError",
    "LatticeSet",
    "OdeSystem",
    "OdelimError",
    "ParseError",
    "QQ",
    "SampleConfig",
    "SparsePoly",
    "SupportBound",
    "VarSpace",
    "Verification",
    "VerificationError",
    "bound_inequalities",
    "certified_eliminate",
    "check_exact",
    "check_probabilistic",
    "count_lattice",
    "eliminate",
    "enumerate_lattice",
    "general_bound_inequality",
    "hull_lattice_count",
    "jet",
    "lie_derivative",
    "order_nu",
    "parse_derivative_poly",
    "parse_state_poly",
    "parse_system",
    "rational_reconstruct",
    "reduction",
    "__version__",
]
