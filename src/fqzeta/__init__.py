"""Special values of zeta functions over finite fields.

The pieces, bottom to top: fixed-precision p-adic and W(F_q) arithmetic
(``padics``), Smith normal form and lattice operations over Z_q
(``plinalg``), sigma-semilinear Frobenius spaces with Newton slopes
(``isocrystals``), lattice gauges with Hodge windows (``gauges``),
Gamma-module invariant calculus (``gammamodules``), rational zeta functions
and Euler products (``lfun``), point counting and cohomology packages for a
small zoo of varieties (``geometry``), and the special-value verifier that
ties the analytic and cohomological sides together (``specialvalues``).
JSON (de)serialization lives in ``serialize``; the command-line front end in
``cli``.
"""

from .errors import (
    BudgetExceeded,
    DegenerateCrystal,
    FqzetaError,
    GeneralConeError,
    HypothesisFailed,
    MultipleRootError,
    NotTypeI,
    PrecisionExhausted,
    ValidationError,
)
from .padics import DEFAULT_PRECISION, FiniteField, QqContext, QqElement
from .plinalg import smith_normal_form
from .isocrystals import Isocrystal, newton_slopes_exact, purity_check
from .gauges import FGaugeWindow, hodge, slope_gauge_check
from .gammamodules import (
    GammaModule,
    TorsionComponent,
    chi_from_zf,
    ext_ranks,
    invariants_coinvariants,
    rho_from_ranks,
    z_of_f,
)
from .lfun import (
    RationalFunction,
    abs_valuation_inverse,
    assemble,
    euler_product_series,
    rational_series,
)
from .geometry import (
    CohomologyPackage,
    VarietySpec,
    closed_points,
    corpus,
    package,
    point_counts,
)
from .specialvalues import VerificationReport, verify_elladic, verify_padic
from .serialize import dump_json, parse_json

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CohomologyPackage",
    "DEFAULT_PRECISION",
    "DegenerateCrystal",
    "FGaugeWindow",
    "FiniteField",
    "FqzetaError",
    "GammaModule",
    "GeneralConeError",
    "HypothesisFailed",
    "Isocrystal",
    "MultipleRootError",
    "NotTypeI",
    "PrecisionExhausted",
    "QqContext",
    "QqElement",
    "RationalFunction",
    "TorsionComponent",
    "ValidationError",
    "VarietySpec",
    "VerificationReport",
    "abs_valuation_inverse",
    "assemble",
    "chi_from_zf",
    "closed_points",
    "corpus",
    "dump_json",
    "euler_product_series",
    "ext_ranks",
    "hodge",
    "invariants_coinvariants",
    "newton_slopes_exact",
    "package",
    "parse_json",
    "point_counts",
    "purity_check",
    "rational_series",
    "rho_from_ranks",
    "slope_gauge_check",
    "smith_normal_form",
    "verify_elladic",
    "verify_padic",
    "z_of_f",
    "__version__",
]
