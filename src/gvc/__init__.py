"""Exact symbolic engine for graded Lagrangian field theory on jets:
graded polynomial algebra, the variational bicomplex, Noether/BRST
machinery and turnkey Yang-Mills models."""

from .grassmann import (
    Context,
    EVEN,
    ExpansionLimitError,
    Generator,
    GvcError,
    JetOrderError,
    ODD,
    ParityError,
    Poly,
    UnknownGeneratorError,
    Variable,
    normalize,
)
from .jets import (
    ContactDerivation,
    iterated_derivative,
    prolong_apply,
    total_derivative,
)
from .superlie import (
    LieSuperalgebra,
    ValidationReport,
    bracket,
    check_invariant_form,
    check_structure,
)
from .bicomplex import (
    EulerLagrange,
    Form,
    Lagrangian,
    conservation_residual,
    d_h,
    d_v,
    euler_lagrange,
    h0,
    interior,
    is_variationally_trivial,
    lepage_equivalent,
    lie_derivative,
    noether_current,
    omega_lambda,
    omega_pair,
    project_rho,
    superpotential_residual,
    variational_delta,
    variational_derivative,
    variational_derivatives,
    volume,
)
from .brst import (
    KoszulTate,
    NoetherOperator,
    antibracket,
    brst_extend,
    koszul_tate,
    master_derivation,
    master_equation_check,
    nilpotency_residuals,
    noether_residuals,
    proper_solution,
)
from .models import GaugeModel, Metric
from .presets import PRESET_MODEL_TEXT, preset_model

__version__ = "0.1.0"
