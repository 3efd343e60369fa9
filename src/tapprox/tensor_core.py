"""Dense real 3-tensors and the multilinear algebra used throughout.

A third-order tensor is stored as a C-ordered ``(m1, m2, m3)`` float64
array, i.e. entries are laid out lexicographically with the first index
slowest-varying and the third fastest.  Mode numbers are 1-based (modes
1, 2, 3) to match the usual multilinear-algebra convention; all entry
indices in code are 0-based like the rest of Python.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

_MODES = (1, 2, 3)


class DenseTensor3:
    """Immutable dense real 3-tensor.

    Parameters
    ----------
    data : array_like
        Anything ``np.asarray`` accepts with exactly three axes.  The
        values are copied into a fresh C-ordered float64 array, so the
        tensor never aliases caller-owned memory.
    """

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-way array, got {arr.ndim} axes")
        if min(arr.shape) < 1:
            raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite reals")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def from_flat(cls, values, dims: Sequence[int]) -> "DenseTensor3":
        """Build a tensor from ``m1*m2*m3`` values in lexicographic order.

        The flat layout has the first index slowest and the third index
        fastest, matching ``self.data.ravel()``.
        """
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3:
            raise ValueError(f"expected three dimensions, got {dims}")
        if min(dims) < 1:
            raise ValueError(f"tensor dimensions must be positive, got {dims}")
        flat = np.asarray(values, dtype=np.float64).ravel()
        expected = math.prod(dims)
        if flat.size != expected:
            raise ValueError(
                f"expected {expected} values for dims {dims}, got {flat.size}"
            )
        return cls(flat.reshape(dims))

    @property
    def data(self) -> np.ndarray:
        """Read-only ``(m1, m2, m3)`` view of the entries."""
        return self._data

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._data.shape  # type: ignore[return-value]

    @property
    def size(self) -> int:
        return self._data.size

    def __repr__(self) -> str:
        m1, m2, m3 = self.dims
        return f"DenseTensor3(dims=({m1}, {m2}, {m3}))"


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d float64 array (copies only if needed)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got {arr.ndim} axes")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite reals")
    return arr


def _check_factors(factors, dims, axis: int, of: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three factor matrices whose rows (``axis=0``) or columns (``axis=1``) match ``dims``."""
    if len(factors) != 3:
        raise ValueError(f"expected three factors, got {len(factors)}")
    facs = tuple(as_matrix(f, f"factor {j + 1}") for j, f in enumerate(factors))
    for j, f in enumerate(facs):
        if f.shape[axis] != dims[j]:
            raise ValueError(
                f"factor {j + 1} {('rows', 'columns')[axis]} ({f.shape[axis]}) do not "
                f"match {of} dimension ({dims[j]})"
            )
    return facs  # type: ignore[return-value]


def _check_mode(mode: int) -> int:
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return mode - 1


def _check_ranks(dims, ranks, what: str = "target ranks") -> tuple[int, int, int]:
    """Validate three ranks against ``dims``: each must lie in ``[1, dim]``."""
    ranks = tuple(int(k) for k in ranks)
    if len(ranks) != 3:
        raise ValueError(f"expected three {what}, got {ranks}")
    for k, m in zip(ranks, dims):
        if not 1 <= k <= m:
            raise ValueError(f"{what} {ranks} out of range for dims {tuple(dims)}")
    return ranks  # type: ignore[return-value]


def unfold(t: DenseTensor3, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of ``t`` as an ``m_j x (m_p * m_q)`` matrix.

    Row ``i`` collects all entries with ``mode``-th index ``i``; the
    columns run over the remaining two indices ``(i_p, i_q)`` with
    ``p < q`` in lexicographic order (``i_q`` fastest).
    """
    ax = _check_mode(mode)
    a = t.data
    return np.moveaxis(a, ax, 0).reshape(a.shape[ax], -1)


def fold(m, mode: int, dims: Sequence[int]) -> DenseTensor3:
    """Inverse of :func:`unfold`: rebuild the tensor with shape ``dims``."""
    ax = _check_mode(mode)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError(f"expected three dimensions, got {dims}")
    arr = as_matrix(m)
    rest = [dims[k] for k in range(3) if k != ax]
    expected = (dims[ax], rest[0] * rest[1])
    if arr.shape != expected:
        raise ValueError(
            f"matrix shape {arr.shape} does not match mode-{mode} unfolding "
            f"of dims {dims} (expected {expected})"
        )
    cube = arr.reshape(dims[ax], rest[0], rest[1])
    return DenseTensor3(np.moveaxis(cube, 0, ax))


def hs_inner(a: DenseTensor3, b: DenseTensor3) -> float:
    """Hilbert-Schmidt inner product: the sum of entrywise products."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(np.dot(a.data.ravel(), b.data.ravel()))


def hs_norm(t: DenseTensor3) -> float:
    """Hilbert-Schmidt norm ``sqrt(hs_inner(t, t))``."""
    return float(np.linalg.norm(t.data.ravel()))


def numerical_rank(m, rank_tol: float | None = None) -> int:
    """Numerical rank of a matrix: singular values above a relative cutoff.

    Counts singular values strictly greater than ``rank_tol * sigma_max``.
    The default ``rank_tol`` is ``max(rows, cols) * machine_eps``.
    """
    arr = as_matrix(m)
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    if rank_tol is None:
        rank_tol = max(arr.shape) * _EPS
    return int(np.count_nonzero(s > rank_tol * s[0]))


def mode_rank(t: DenseTensor3, mode: int, rank_tol: float | None = None) -> int:
    """Rank of the mode-``mode`` unfolding (numerical rank, see above)."""
    return numerical_rank(unfold(t, mode), rank_tol)


def multilinear_rank(
    t: DenseTensor3, rank_tol: float | None = None
) -> tuple[int, int, int]:
    """The triple of mode ranks ``(rank_1, rank_2, rank_3)``."""
    return tuple(mode_rank(t, j, rank_tol) for j in _MODES)  # type: ignore[return-value]


def mode_multiply(core: DenseTensor3, m, mode: int) -> DenseTensor3:
    """Contract the ``mode``-th axis of ``core`` with the rows of ``m``.

    The matrix's first index is the contracted one:

        result[..., i, ...] = sum_k core[..., k, ...] * m[k, i]

    so for an ``(a, b)`` matrix the ``mode``-th dimension changes from
    ``a`` to ``b``.
    """
    ax = _check_mode(mode)
    arr = as_matrix(m)
    if arr.shape[0] != core.dims[ax]:
        raise ValueError(
            f"matrix rows ({arr.shape[0]}) must match mode-{mode} dimension "
            f"({core.dims[ax]})"
        )
    out = np.moveaxis(np.tensordot(core.data, arr, axes=(ax, 0)), -1, ax)
    return DenseTensor3(out)


@dataclass(frozen=True, eq=False)
class TuckerFactorization:
    """Core tensor plus one factor matrix per mode.

    Factor ``j`` has shape ``(core_dim_j, out_dim_j)``: it maps the
    core's mode-``j`` coordinates onto the reconstructed tensor's, so
    ``reconstruct()`` contracts each core axis with its factor's rows.
    Both solvers return this form: BSTA's factors are its transposed
    frames, FLRTA's are the sampled sections.
    """

    core: DenseTensor3
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        facs = _check_factors(self.factors, self.core.dims, 0, "core")
        object.__setattr__(self, "factors", facs)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Dimensions of the reconstructed tensor."""
        return tuple(f.shape[1] for f in self.factors)  # type: ignore[return-value]

    def reconstruct(self) -> DenseTensor3:
        """Contract the core with all three factors."""
        f1, f2, f3 = self.factors
        out = np.einsum("abc,ai,bj,ck->ijk", self.core.data, f1, f2, f3, optimize=True)
        return DenseTensor3(out)

    def storage_count(self) -> int:
        """Number of stored scalars (core plus factors)."""
        return self.core.size + sum(f.size for f in self.factors)
