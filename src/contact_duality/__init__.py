"""Numerical laboratory for dual contact-interaction models of identical
particles on a line: the ordered-sector Robin problem, the delta-type
boson model, and the epsilon-type fermion model, together with the
permutation-sum propagator construction that ties them together."""

import os
import sys

__version__ = "0.1.0"

# The checks' BLAS calls are too small to gain from a second thread, and
# OpenBLAS starts its thread pool when it loads: default to one thread
# before the first numpy or scipy import, unless one of the variables
# OpenBLAS reads its count from is set.
#: ``OPENBLAS_NUM_THREADS`` after that default, whether the package set it,
#: and whether numpy was imported first (its OpenBLAS then kept its own
#: default); ``manifest.json`` records it.
blas_threads = {
    "numpy_already_imported": "numpy" in sys.modules,
    "set_by_package": not any(var in os.environ for var in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")),
}
if blas_threads["set_by_package"]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
blas_threads["openblas_num_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")

from .coupling import (  # noqa: E402, F401
    BoundaryCoupling,
    CouplingModel,
    dirichlet,
    neumann,
    robin,
    scale_invariant,
    uniform_model,
)
from .folding import fold_integral_check, random_gaussian  # noqa: E402, F401
from .kernels import (  # noqa: E402, F401
    KernelEvaluator,
    dual_pair_from_sector,
    free_kernel,
    permutation_sum,
    robin_pair_kernel,
)
from .kernel_checks import (  # noqa: E402, F401
    SamplingSpec,
    dual_reconstruction_check,
    verify_assumptions,
    verify_sector_properties,
)
from .operators import (  # noqa: E402, F401
    DomainSpec,
    GridOperator,
    SpectrumResult,
    build_delta_bose,
    build_epsilon_fermi,
    build_sector,
    solve,
)
from .permutations import Statistics  # noqa: E402, F401
from .spectra import duality_report, scale_invariance_report  # noqa: E402, F401
