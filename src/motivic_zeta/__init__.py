"""Exact zeta and L-functions of graded-matrix endomorphisms, with
finite-field point counting, Witt-ring arithmetic, Hasse-Weil analytics,
numerical Grothendieck groups, and motivic measures.

The exports of the two counting modules, `varieties` and `lfunctions`,
are bound on first use (PEP 562), because those modules import numpy:
the exact algebra, the analytics, K_0 and the measures load without it.
"""

from .errors import (
    DimensionError,
    MotivicZetaError,
    NotInvertibleError,
    NumericError,
    PoleError,
    PrecisionError,
    PreconditionError,
    ResourceError,
    ValidationError,
)
from .exact_core import Polynomial, RatMatrix, RationalFunction, char_poly, reversed_char_poly
from .series import (
    DEFAULT_PRECISION,
    TruncatedSeries,
    WittElement,
    ghost_components,
    ghost_to_witt,
    witt_add,
    witt_mul,
)
from .reconstruct import (
    NotStabilized,
    ReconstructionResult,
    berlekamp_massey,
    linear_complexity_profile,
    traces_to_zeta,
)
from .motives import (
    TracedMotive,
    artin_mazur_traces,
    check_functional_equation,
    cy_periodicity_check,
    determinant,
    direct_sum,
    dual_inverse,
    tensor,
    trace_sequence,
    zeta_degrees,
    zeta_rational,
    zeta_series,
)
from .gf import FqElement, FqField, fq_make
from .analytic import (
    Inapplicable,
    convergence_abscissa,
    growth_bound_check,
    hasse_weil_eval,
    poles_and_zeros,
    rate_estimate,
    rate_exact,
    regularized_det_check,
    spectral_radius,
    spectrum,
    theta_construction,
)
from .k0 import (
    EulerGram,
    beilinson_gram,
    left_kernel,
    num_grothendieck,
    phi_pairing_check,
    quiver_gram,
    right_kernel,
)
from .measures import (
    EpsInt,
    MeasureClass,
    affine_space,
    mu_count,
    mu_nc_composite,
    mu_rig,
    non_factoring_witness,
    point,
    projective_space,
    torus,
)

__version__ = "0.1.0"

# the names bound on first use, with their modules; touching one binds all
_LAZY = {
    **dict.fromkeys(
        (
            "VarietySpec",
            "closed_points",
            "count_points",
            "euler_product_series",
            "twisted_count",
            "weil_check",
            "zeta_from_counts",
        ),
        "varieties",
    ),
    **dict.fromkeys(
        (
            "Character",
            "Cyclotomic",
            "GroupAction",
            "LSeries",
            "l_function",
            "orbifold_zeta",
            "rational_character",
            "trivial_character",
        ),
        "lfunctions",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import lfunctions, varieties

    modules = {"varieties": varieties, "lfunctions": lfunctions}
    globals().update({n: getattr(modules[m], n) for n, m in _LAZY.items()})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
