"""Fiber-sampling low-rank approximation of dense 3-tensors.

Instead of optimizing subspaces, this route reads only a few sections of
the tensor: index sets ``I``, ``J``, ``K`` select rows, columns and
slices, and the tensor is interpolated from the three cross sections it
induces, a third-order analogue of matrix skeleton (CUR) approximation.
Each mode-3 slice is replaced by its cross approximation through the
``(I, J)`` block, and the slices themselves are interpolated through the
``K`` columns of the doubly-indexed unfolding.  The result assembles
into an explicit Tucker factorization whose storage is governed by the
section sizes rather than the full tensor.  :func:`flrta_solve` runs the
whole route, selection to error, as :func:`~.bsta.bsta_solve` runs BSTA's.

Index sets are 0-based throughout, like all Python indexing.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    DenseTensor3,
    TuckerFactorization,
    _as_int,
    _check_factors,
    _check_ranks,
    _checked_norm,
    _float_array,
    _multilinear,
    _positive_int,
    _rank_cutoff,
    _residual_norm,
    _seed,
    _three_positive_ints,
    _tolerance,
    _unfold,
    hs_norm,
)

DEFAULT_TRIALS = 20

#: Warn when the best selection found still has a condition number above this.
COND_WARN_THRESHOLD = 1e8


class RankDeficientDesignWarning(RuntimeWarning):
    """The sampled least-squares system was singular; a minimum-norm core was returned."""


@dataclass(frozen=True)
class TrialConditions:
    """Condition numbers of one sampling trial (+inf marks a singular matrix)."""

    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    k_set: tuple[int, ...]
    cond_outer: float
    cond_slices: tuple[float, ...]

    @property
    def worst(self) -> float:
        return max(self.cond_outer, max(self.cond_slices))


def _check_index_set(values, bound: int, name: str) -> tuple[int, ...]:
    out = tuple(_as_int(v, name) for v in values)
    if len(out) == 0:
        raise ValueError(f"{name} must not be empty")
    if len(set(out)) != len(out):
        raise ValueError(f"{name} contains duplicate indices: {out}")
    for v in out:
        if not 0 <= v < bound:
            raise ValueError(f"{name} index {v} out of range [0, {bound})")
    return tuple(sorted(out))


@dataclass(frozen=True)
class IndexSelection:
    """Sampling pattern: index sets for the three modes of a fixed-size tensor."""

    dims: tuple[int, int, int]
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    k_set: tuple[int, ...]
    cond_report: tuple[TrialConditions, ...] | None = None

    def __post_init__(self) -> None:
        dims = _three_positive_ints(self.dims, "dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "i_set", _check_index_set(self.i_set, dims[0], "i_set"))
        object.__setattr__(self, "j_set", _check_index_set(self.j_set, dims[1], "j_set"))
        object.__setattr__(self, "k_set", _check_index_set(self.k_set, dims[2], "k_set"))

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.i_set), len(self.j_set), len(self.k_set))

    @property
    def chosen_conditions(self) -> TrialConditions | None:
        """The trial record matching this selection, if a report is attached."""
        chosen = (self.i_set, self.j_set, self.k_set)
        return next(
            (rec for rec in self.cond_report or () if (rec.i_set, rec.j_set, rec.k_set) == chosen),
            None,
        )


def pinv(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``tol * sigma_max`` are treated as zero;
    the default ``tol`` is ``max(rows, cols) * machine_eps``, and a
    negative, infinite or NaN ``tol`` is rejected.
    """
    arr = _float_array(m)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    rank = _rank_cutoff(s, arr.shape, tol)
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (vh.T * inv) @ u.T


def _check_selection(t: DenseTensor3, sel: IndexSelection) -> None:
    if sel.dims != t.dims:
        raise ValueError(f"selection dims {sel.dims} do not match tensor dims {t.dims}")


def sections(
    t: DenseTensor3, sel: IndexSelection
) -> tuple[DenseTensor3, DenseTensor3, DenseTensor3]:
    """The three cross sections induced by a selection.

    The first section keeps all of mode 1 and restricts modes 2, 3 to
    ``(j_set, k_set)``; the other two analogously keep modes 2 and 3.
    """
    _check_selection(t, sel)
    grids = _section_grids(sel)
    return tuple(DenseTensor3(t.data[g], _fresh=True) for g in grids)  # type: ignore[return-value]


def _section_grids(sel: IndexSelection):
    """Index grids of the three :func:`sections`."""
    l1, l2, l3 = sel.dims
    i, j, k = sel.i_set, sel.j_set, sel.k_set
    return np.ix_(np.arange(l1), j, k), np.ix_(i, np.arange(l2), k), np.ix_(i, j, np.arange(l3))


def _cross_blocks(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(L, K)`` and per-slice ``(I, J)`` cross blocks of ``block = t[I, J, K]``."""
    p, q, r = block.shape
    return block.reshape(p * q, r), block.transpose(2, 0, 1)


def slice_cross(t: DenseTensor3, sel: IndexSelection, k: int) -> np.ndarray:
    """Skeleton (CUR) approximation of the mode-3 slice at index ``k``.

    Returns ``F[:, J] @ pinv(F[I, J]) @ F[I, :]`` for the slice
    ``F = t[:, :, k]``; exact whenever ``rank(F[I, J]) == rank(F)``.
    """
    _check_selection(t, sel)
    k = _as_int(k, "slice index")
    if k not in sel.k_set:
        raise ValueError(f"slice index {k} is not in k_set {sel.k_set}")
    f = t.data[:, :, k]
    block = f[np.ix_(sel.i_set, sel.j_set)]
    return f[:, sel.j_set] @ pinv(block) @ f[sel.i_set, :]


def flrta_approx(t: DenseTensor3, sel: IndexSelection, pinv_tol: float | None = None) -> TuckerFactorization:
    """Assemble the cross approximation of ``t`` as an explicit Tucker form.

    The mode-3 slices over ``k_set``, each replaced by its skeleton
    approximation through the ``(I, J)`` block, are interpolated across
    mode 3 through the ``(L, K)`` block of the mode-3-major unfolding
    (``L`` is the image of ``I x J``).  Expanding both interpolations
    gives a Tucker form whose factors are exactly the three sections --
    only entries of ``t`` on the sections appear in the factors, and the
    core is built from pseudoinverses of the small cross blocks: with
    ``P[k] = pinv(F_k[I, J])`` for the ``k``-th selected slice ``F_k`` and
    ``W = pinv(c3[:, K])``, its only nonzeros are
    ``core[j*r + k, i*r + k, :] = P[k, j, i] * W[k, :]``.
    """
    _checked_norm(t)
    s1, s2, s3 = sections(t, sel)
    p, q, r = sel.sizes

    # Factor j is section j's mode-j unfolding, transposed.
    c1, c2, c3 = (_unfold(sec.data, ax).T for ax, sec in enumerate((s1, s2, s3)))

    # Interpolation weights across mode 3, and within each selected slice.
    outer, slices = _cross_blocks(s3.data[:, :, sel.k_set])
    W = pinv(outer, pinv_tol)  # (r, p*q)
    P = np.stack([pinv(block, pinv_tol) for block in slices])  # (r, q, p)
    ar = np.arange(r)
    core = np.zeros((q, r, p, r, p * q))
    core[:, ar, :, ar, :] = P[..., None] * W[:, None, None, :]
    core = DenseTensor3(core.reshape(q * r, p * r, p * q), _fresh=True)
    return TuckerFactorization(core, (c1, c2, c3))


def _condition_number(m: np.ndarray) -> float:
    """sigma_max / sigma_min, or +inf when the matrix is numerically singular."""
    s = np.linalg.svd(m, compute_uv=False)
    if _rank_cutoff(s, m.shape) < s.size:
        return float("inf")
    return float(s[0] / s[-1])


def select_indices(
    t: DenseTensor3,
    ranks: tuple[int, int, int],
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    *,
    _stacklevel: int = 2,
) -> IndexSelection:
    """Pick index sets of the given sizes by seeded random search.

    Draws ``trials`` uniform without-replacement triples of index sets,
    scores each by the worst condition number over its cross matrices
    (the ``(L, K)`` interpolation block and the per-slice ``(I, J)``
    blocks), and returns the selection with the smallest score.  Ties
    break to the lexicographically smallest sets, so the outcome is a
    deterministic function of the tensor, sizes, trials and seed.

    A ``RuntimeWarning`` says when every trial is singular (such a pick can
    still be exact), or else when the best one is poorly conditioned.  It
    names the caller's line; :func:`flrta_solve` passes the private
    ``_stacklevel=3`` so that it names the line that called the solve.
    """
    _checked_norm(t)
    l1, l2, l3 = t.dims
    p, q, r = _check_ranks(t.dims, ranks, "section sizes")
    trials = _positive_int(trials, "trials")

    rng = np.random.default_rng(_seed(seed))
    records = []
    for _ in range(trials):
        ii = tuple(sorted(rng.choice(l1, size=p, replace=False).tolist()))
        jj = tuple(sorted(rng.choice(l2, size=q, replace=False).tolist()))
        kk = tuple(sorted(rng.choice(l3, size=r, replace=False).tolist()))
        outer, slices = _cross_blocks(t.data[np.ix_(ii, jj, kk)])
        cond_slices = tuple(_condition_number(block) for block in slices)
        records.append(TrialConditions(ii, jj, kk, _condition_number(outer), cond_slices))

    best = min(records, key=lambda rec: (rec.worst, rec.i_set, rec.j_set, rec.k_set))
    selection = IndexSelection(
        t.dims, best.i_set, best.j_set, best.k_set, cond_report=tuple(records)
    )
    if not np.isfinite(best.worst):
        message = (
            f"all {trials} sampling trials produced singular cross matrices "
            f"for section sizes ({p}, {q}, {r})"
        )
    elif best.worst > COND_WARN_THRESHOLD:
        message = f"best selection is poorly conditioned (worst condition number {best.worst:.3e})"
    else:
        return selection
    warnings.warn(message, RuntimeWarning, stacklevel=_stacklevel)
    return selection


@dataclass(frozen=True)
class FlrtaOptions:
    """Knobs for :func:`flrta_solve`.

    Parameters
    ----------
    section_sizes : (p, q, r)
        Sizes of the index sets ``I``, ``J``, ``K``.
    trials : int
        Random index triples :func:`select_indices` scores.
    seed : int
        Seed of the index search; a non-negative int.
    pinv_tol : float or None
        Relative cutoff of every cross pinv (see :func:`pinv`); ``None``
        means ``pinv``'s default.
    """

    section_sizes: tuple[int, int, int]
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    pinv_tol: float | None = None

    def __post_init__(self) -> None:
        sizes = _three_positive_ints(self.section_sizes, "section sizes")
        object.__setattr__(self, "section_sizes", sizes)
        object.__setattr__(self, "trials", _positive_int(self.trials, "trials"))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.pinv_tol is not None:
            _tolerance(self.pinv_tol, "rank tolerance")


@dataclass
class FlrtaResult:
    """Outcome of :func:`flrta_solve`.

    ``selection`` is :func:`select_indices`' pick, its ``cond_report``
    attached; ``tucker`` is :func:`flrta_approx` on it; ``approx_error`` is
    the residual norm ``|t - tucker.reconstruct()|``.
    """

    selection: IndexSelection
    tucker: TuckerFactorization
    approx_error: float

    @property
    def degenerate(self) -> bool:
        """Every sampling trial was singular, the chosen one included."""
        return math.isinf(self.selection.chosen_conditions.worst)


def flrta_solve(t: DenseTensor3, opts: FlrtaOptions) -> FlrtaResult:
    """Cross approximation of ``t``: :func:`select_indices`, then :func:`flrta_approx`.

    The error is the chunked residual of the reconstruction, the rule
    BSTA's :func:`~.subspace.distance` uses.  Besides the warnings of
    :func:`select_indices`, a ``RuntimeWarning`` says when the error is at
    least the norm of a nonzero ``t``: the zero tensor would be as close,
    as the pseudo-skeleton amplifies noise at sections of the rank.
    """
    sizes = opts.section_sizes
    selection = select_indices(t, sizes, trials=opts.trials, seed=opts.seed, _stacklevel=3)
    tucker = flrta_approx(t, selection, pinv_tol=opts.pinv_tol)
    error = _residual_norm(t.data, tucker.reconstruct().data)
    norm = hs_norm(t)
    if error >= norm > 0.0:
        warnings.warn(
            f"FLRTA error is {error / norm:.3g} times the tensor's norm at section "
            f"sizes {sizes}, no better than the zero tensor; try larger sections",
            RuntimeWarning,
            stacklevel=2,
        )
    return FlrtaResult(selection, tucker, error)


def fit_core_full(t: DenseTensor3, factors) -> DenseTensor3:
    """Least-squares core for fixed factors, fitted over every entry.

    Because the factors enter mode by mode, the normal equations separate
    and the minimum-norm optimum is the multilinear product of the tensor
    with the pseudoinverse of each factor's transpose.
    """
    facs = _check_factors(factors, t.dims, 1, "tensor")
    return DenseTensor3(_multilinear(t.data, [pinv(f.T) for f in facs]), _fresh=True)


def fit_core_cross(t: DenseTensor3, factors, sel: IndexSelection) -> DenseTensor3:
    """Least-squares core fitted only on the entries of the cross sections.

    The fit runs over the union of the three sections induced by ``sel``
    (each sampled entry counted once).  A rank-deficient design yields
    the minimum-norm core and a :class:`RankDeficientDesignWarning`.
    """
    _check_selection(t, sel)
    f1, f2, f3 = _check_factors(factors, t.dims, 1, "tensor")

    # The sampled entries in lexicographic order: np.nonzero reads C order.
    sampled = np.zeros(t.dims, dtype=bool)
    for grid in _section_grids(sel):
        sampled[grid] = True
    ci, cj, ck = np.nonzero(sampled)

    design = np.einsum(
        "as,bs,cs->sabc", f1[:, ci], f2[:, cj], f3[:, ck], optimize=True
    ).reshape(ci.size, -1)
    rhs = t.data[ci, cj, ck]
    # One thin SVD gives both the rank test and the minimum-norm solve.
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    rank = _rank_cutoff(s, design.shape)
    if rank < design.shape[1]:
        warnings.warn(
            "sampled design matrix is rank deficient; returning the "
            "minimum-norm core",
            RankDeficientDesignWarning,
            stacklevel=2,
        )
    sol = vh[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    dims = (f1.shape[0], f2.shape[0], f3.shape[0])
    return DenseTensor3(sol.reshape(dims), _fresh=True)
