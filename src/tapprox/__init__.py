"""Best subspace approximations of dense real 3-tensors.

Two complementary routes to a low-multilinear-rank picture of a tensor:

* :mod:`tapprox.bsta` -- alternating relaxation over subspace triples,
  converging to certified critical points of the projection objective;
* :mod:`tapprox.flrta` -- fiber sampling: interpolate the tensor from a
  few of its sections, no optimization involved.

Each is one solve: ``bsta_solve(t, BstaOptions(...))`` and
``flrta_solve(t, FlrtaOptions(...))`` return a result whose ``tucker`` is a
:class:`TuckerFactorization` and whose ``approx_error`` is the norm of
``t - tucker.reconstruct()``.  :mod:`tapprox.tensor_core` holds the tensor
type, the multilinear product, unfoldings, the norm and ranks;
:mod:`tapprox.subspace` holds frames, projections and distances.  The
``tapprox`` command wraps everything for files on disk.
"""
from .bsta import (
    BstaOptions,
    BstaResult,
    bsta_solve,
    hosvd_init,
    projected_operator,
    random_triple,
    verify_critical_point,
)
from .flrta import (
    FlrtaOptions,
    FlrtaResult,
    IndexSelection,
    fit_core_cross,
    fit_core_full,
    flrta_approx,
    flrta_solve,
    pinv,
    sections,
    select_indices,
    slice_cross,
)
from .subspace import (
    Subspace,
    SubspaceTriple,
    coefficient_tensor,
    distance,
    project,
)
from .tensor_core import (
    DenseTensor3,
    TuckerFactorization,
    fold,
    hs_norm,
    multilinear_rank,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "BstaOptions",
    "BstaResult",
    "DenseTensor3",
    "FlrtaOptions",
    "FlrtaResult",
    "IndexSelection",
    "Subspace",
    "SubspaceTriple",
    "TuckerFactorization",
    "bsta_solve",
    "coefficient_tensor",
    "distance",
    "fit_core_cross",
    "fit_core_full",
    "flrta_approx",
    "flrta_solve",
    "fold",
    "hosvd_init",
    "hs_norm",
    "multilinear_rank",
    "pinv",
    "project",
    "projected_operator",
    "random_triple",
    "sections",
    "select_indices",
    "slice_cross",
    "unfold",
    "verify_critical_point",
]
