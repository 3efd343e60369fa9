"""Dense real 3-tensors and the multilinear algebra used throughout.

A third-order tensor is stored as a C-ordered ``(m1, m2, m3)`` float64
array, i.e. entries are laid out lexicographically with the first index
slowest-varying and the third fastest.  Mode numbers are 1-based (modes
1, 2, 3) to match the usual multilinear-algebra convention; all entry
indices in code are 0-based like the rest of Python.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

_MODES = (1, 2, 3)


class DenseTensor3:
    """Immutable dense real 3-tensor.

    Parameters
    ----------
    data : array_like
        Anything ``np.asarray`` accepts with exactly three axes.  The
        values are copied into a fresh C-ordered float64 array, so the
        tensor never aliases caller-owned memory.

    Package code that wraps an array it has just computed passes the
    private ``_fresh=True``: the tensor then takes that array over (copying
    only to make it C-ordered float64) and marks it read-only, after the
    same checks.  These constructions skip the copy: ``reconstruct()``,
    ``coefficient_tensor``, the array ``cli.read_tensor_file`` parses,
    ``tapprox gen``'s tensor, FLRTA's sections and cores, and BSTA's
    Tucker core (``bsta_solve``) and compressed long-mode tensor.  The
    finite-entry check runs one chunk at a time, so taking over a C-ordered
    float64 array allocates nothing the size of the tensor.
    """

    __slots__ = ("_data",)

    def __init__(self, data, *, _fresh: bool = False) -> None:
        if _fresh:
            arr = np.ascontiguousarray(data, dtype=np.float64)
        else:
            arr = np.array(data, dtype=np.float64, order="C", copy=True)
        arr = _float_array(arr, 3, "tensor")
        arr.flags.writeable = False
        self._data = arr

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


def _as_int(value, name: str) -> int:
    """``value`` as an int by ``operator.index``: 2.9 is refused, not truncated to 2."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: {value!r} is not an int") from None


def _seed(value, name: str = "seed") -> int:
    """``value`` as a random seed: an int by :func:`_as_int`, and not negative."""
    seed = _as_int(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _positive_int(value, name: str) -> int:
    """``value`` as a count: an int by :func:`_as_int`, and at least 1."""
    if (count := _as_int(value, name)) < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def _three_positive_ints(values, name: str) -> tuple[int, int, int]:
    """``values`` as a tuple of three ints, each at least 1."""
    out = tuple(_as_int(v, name) for v in values)
    if len(out) != 3 or min(out) < 1:
        raise ValueError(f"{name} must be three positive ints, got {out}")
    return out  # type: ignore[return-value]


#: Values per chunk of :func:`_all_finite` and :func:`_residual_norm`: 512 KiB of float64.
_CHUNK = 1 << 16


def _all_finite(arr: np.ndarray) -> bool:
    """``np.all(np.isfinite(arr))``, one chunk at a time: no bool array the size of ``arr``."""
    flat = arr.ravel(order="K")
    return all(np.isfinite(flat[i : i + _CHUNK]).all() for i in range(0, flat.size, _CHUNK))


def _float_array(values, ndim: int = 2, name: str = "matrix") -> np.ndarray:
    """Validate and return an ``ndim``-axis float64 array (copies only if needed)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got {arr.ndim} axes")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} dimensions must be positive, got {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} entries must be finite reals")
    return arr


def _residual_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``|a - b|`` for two arrays of one shape, one chunk of the flat arrays at a time.

    Equals ``np.linalg.norm(a - b)`` up to the order of summation, but holds
    one difference chunk of :data:`_CHUNK` values, never a third full-size
    array.  BSTA's error (``subspace.distance``) and FLRTA's both use it.
    """
    a, b = a.reshape(-1), b.reshape(-1)
    buf = np.empty(min(a.size, _CHUNK))
    total = 0.0
    for start in range(0, a.size, _CHUNK):
        part = a[start : start + _CHUNK]
        d = np.subtract(part, b[start : start + _CHUNK], out=buf[: part.size])
        total += float(d @ d)
    return math.sqrt(total)


def _mode_product(data: np.ndarray, mat: np.ndarray, ax: int) -> np.ndarray:
    """``data x_{ax+1} mat`` for a ``k x m_ax`` ``mat``: one matrix product, no copy of ``data``."""
    if ax == 0:
        return (mat @ data.reshape(data.shape[0], -1)).reshape(-1, *data.shape[1:])
    if ax == 1:
        return mat @ data
    return (data.reshape(-1, data.shape[2]) @ mat.T).reshape(*data.shape[:2], -1)


def _shrink_order(rows, cols) -> list[int]:
    """The three axes by ``rows[j] / cols[j]``, smallest first, ties in axis order.

    The order of mode products that shrinks the array most first, shared by
    :func:`_multilinear` and the ST-HOSVD start (``bsta.hosvd_init``).
    """
    return sorted(range(3), key=lambda j: (rows[j] / cols[j], j))


def _multilinear(data: np.ndarray, mats) -> np.ndarray:
    """The multilinear product ``data x_1 A x_2 B x_3 C`` of ``(A, B, C) = mats``.

    Three :func:`_mode_product` calls in :func:`_shrink_order` of the matrices'
    rows/cols; at most two of the products are held at once.
    """
    for ax in _shrink_order([m.shape[0] for m in mats], [m.shape[1] for m in mats]):
        data = _mode_product(data, mats[ax], ax)
    return data


def _check_factors(factors, dims, axis: int, of: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three factor matrices whose rows (``axis=0``) or columns (``axis=1``) match ``dims``."""
    if len(factors) != 3:
        raise ValueError(f"expected three factors, got {len(factors)}")
    facs = tuple(_float_array(f, name=f"factor {j + 1}") for j, f in enumerate(factors))
    for j, f in enumerate(facs):
        if f.shape[axis] != dims[j]:
            raise ValueError(
                f"factor {j + 1} {('rows', 'columns')[axis]} ({f.shape[axis]}) do not "
                f"match {of} dimension ({dims[j]})"
            )
    return facs  # type: ignore[return-value]


def _check_mode(mode: int) -> int:
    """``mode`` (an int by :func:`_as_int`, one of 1, 2, 3) as a 0-based axis."""
    if (mode := _as_int(mode, "mode")) not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return mode - 1


def _check_ranks(dims, ranks, what: str = "target ranks") -> tuple[int, int, int]:
    """Validate three ranks against ``dims``: each must lie in ``[1, dim]``."""
    ranks = _three_positive_ints(ranks, what)
    for k, m in zip(ranks, dims):
        if k > m:
            raise ValueError(f"{what} {ranks} out of range for dims {tuple(dims)}")
    return ranks  # type: ignore[return-value]


def unfold(t: DenseTensor3, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of ``t`` as an ``m_j x (m_p * m_q)`` matrix.

    Row ``i`` collects all entries with ``mode``-th index ``i``; the
    columns run over the remaining two indices ``(i_p, i_q)`` with
    ``p < q`` in lexicographic order (``i_q`` fastest).
    """
    return _unfold(t.data, _check_mode(mode))


def _unfold(arr: np.ndarray, ax: int) -> np.ndarray:
    """:func:`unfold`'s layout for any 3-axis array and 0-based axis ``ax``."""
    return arr.transpose(ax, *(k for k in range(3) if k != ax)).reshape(arr.shape[ax], -1)


def fold(m, mode: int, dims: Sequence[int]) -> DenseTensor3:
    """Inverse of :func:`unfold`: rebuild the tensor with shape ``dims``."""
    ax = _check_mode(mode)
    dims = _three_positive_ints(dims, "dims")
    arr = _float_array(m)
    rest = [dims[k] for k in range(3) if k != ax]
    expected = (dims[ax], rest[0] * rest[1])
    if arr.shape != expected:
        raise ValueError(
            f"matrix shape {arr.shape} does not match mode-{mode} unfolding "
            f"of dims {dims} (expected {expected})"
        )
    cube = arr.reshape(dims[ax], rest[0], rest[1])
    return DenseTensor3(np.moveaxis(cube, 0, ax))


def hs_norm(t: DenseTensor3) -> float:
    """Hilbert-Schmidt norm: the square root of the sum of squared entries.

    The sum is not rescaled: it is ``inf`` when it overflows and ``0`` when
    every square underflows, which :func:`_checked_norm` rejects.
    """
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(t.data.ravel()))


def _checked_norm(t: DenseTensor3) -> float:
    """Reject a nonzero tensor whose squared norm is not a finite normal float.

    Returns ``hs_norm(t)``.  Both solvers work with squared norms
    (objectives, gain floors, errors), which underflow or overflow outside
    this range and would make their answers meaningless.  Only a zero norm
    looks at the entries again, to tell the zero tensor from an underflow.
    """
    norm = hs_norm(t)
    sq = norm * norm
    if _TINY <= sq < math.inf or (sq == 0.0 and not t.data.any()):
        return norm
    raise ValueError(
        f"hs_norm {norm:.3g} of a nonzero tensor is out of range "
        f"[{math.sqrt(_TINY):.3g}, {math.sqrt(np.finfo(np.float64).max):.3g}] "
        "(its square must be a normal float); rescale the input"
    )


def _tolerance(value, name: str, positive: bool = False):
    """``value`` unchanged when it is finite and ``>= 0`` (``> 0`` with ``positive``).

    The one tolerance rule: an infinite or NaN tolerance would accept or cut everything.
    """
    if math.isfinite(value) and (value > 0.0 if positive else value >= 0.0):
        return value
    raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


def _rank_cutoff(s: np.ndarray, shape, tol: float | None = None) -> int:
    """Rank by :func:`numerical_rank`'s cutoff; ``s`` decreases, so it keeps ``s[:rank]``."""
    tol = max(shape) * _EPS if tol is None else _tolerance(tol, "rank tolerance")
    return int(np.count_nonzero(s > tol * s[0])) if s[0] > 0.0 else 0


def numerical_rank(m, rank_tol: float | None = None) -> int:
    """Numerical rank of a matrix: singular values above a relative cutoff.

    Counts singular values strictly greater than ``rank_tol * sigma_max``.
    The default ``rank_tol`` is ``max(rows, cols) * machine_eps``; a
    negative, infinite or NaN ``rank_tol`` is rejected.
    """
    arr = _float_array(m)
    return _rank_cutoff(np.linalg.svd(arr, compute_uv=False), arr.shape, rank_tol)


def multilinear_rank(t: DenseTensor3) -> tuple[int, int, int]:
    """Numerical ranks of the three unfoldings ``(rank_1, rank_2, rank_3)``."""
    return tuple(numerical_rank(unfold(t, j)) for j in _MODES)  # type: ignore[return-value]


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
        """Contract the core with all three factors (the multilinear product).

        The tensor takes over the product's array without a copy; its data
        is read-only, as every tensor's is.
        """
        return DenseTensor3(_multilinear(self.core.data, [f.T for f in self.factors]), _fresh=True)

    def storage_count(self) -> int:
        """Number of stored scalars (core plus factors)."""
        return self.core.size + sum(f.size for f in self.factors)
