"""Numerical laboratory for dual contact-interaction models of identical
particles on a line: the ordered-sector Robin problem, the delta-type
boson model, and the epsilon-type fermion model, together with the
permutation-sum propagator construction that ties them together."""

__version__ = "0.1.0"

from .coupling import (  # noqa: F401
    BoundaryCoupling,
    CouplingModel,
    dirichlet,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from .folding import QuadSpec, fold_integral_check, random_gaussian  # noqa: F401
from .kernels import (  # noqa: F401
    KernelEvaluator,
    dual_pair_from_sector,
    free_kernel,
    permutation_sum,
    robin_pair_kernel,
)
from .kernel_checks import (  # noqa: F401
    SamplingSpec,
    dual_reconstruction_check,
    verify_assumptions,
    verify_sector_properties,
)
from .operators import (  # noqa: F401
    DomainSpec,
    GridOperator,
    SpectrumResult,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
    solve,
)
from .permutations import Permutation, Statistics  # noqa: F401
from .spectra import duality_report, scale_invariance_report  # noqa: F401
