"""Subspaces of Euclidean space and orthogonal projections of 3-tensors.

A ``Subspace`` is a point on a Grassmannian, represented concretely by an
orthonormal column frame.  A ``SubspaceTriple`` combines one subspace per
tensor mode; projecting a tensor onto the triple's tensor product and
measuring the projection distance are the basic operations the
approximation solvers are built from.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensor_core import (
    DenseTensor3,
    TuckerFactorization,
    _float_array,
    _multilinear,
    _residual_norm,
)

#: Per-entry tolerance for accepting a frame as orthonormal.
ORTHO_TOL = 1e-10


class Subspace:
    """A ``dim``-dimensional subspace of R^``ambient_dim``.

    Stored as an ``(ambient_dim, dim)`` matrix with orthonormal columns.
    The frame is validated on construction (``F.T @ F`` must equal the
    identity to within :data:`ORTHO_TOL` per entry) and kept immutable.
    """

    __slots__ = ("_frame",)

    def __init__(self, frame) -> None:
        f = np.array(_float_array(frame, name="frame"), copy=True)
        m, k = f.shape
        if k > m:
            raise ValueError(
                f"frame has more columns ({k}) than rows ({m}); a subspace "
                "dimension cannot exceed the ambient dimension"
            )
        gram = f.T @ f
        defect = float(np.max(np.abs(gram - np.eye(k))))
        if defect > ORTHO_TOL:
            raise ValueError(
                f"frame columns are not orthonormal (max Gram defect {defect:.3e})"
            )
        f.flags.writeable = False
        self._frame = f

    @property
    def frame(self) -> np.ndarray:
        """Read-only ``(ambient_dim, dim)`` orthonormal frame."""
        return self._frame

    @property
    def ambient_dim(self) -> int:
        return self._frame.shape[0]

    @property
    def dim(self) -> int:
        return self._frame.shape[1]

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


class SubspaceTriple(NamedTuple):
    """One subspace per tensor mode; ``s[j]`` is mode ``j + 1``'s."""

    x: Subspace
    y: Subspace
    z: Subspace

    @property
    def ambient_dims(self) -> tuple[int, int, int]:
        return tuple(sub.ambient_dim for sub in self)  # type: ignore[return-value]


def _check_triple(t: DenseTensor3, s: SubspaceTriple) -> None:
    if s.ambient_dims != t.dims:
        raise ValueError(
            f"subspace ambient dims {s.ambient_dims} do not match tensor dims {t.dims}"
        )


def coefficient_tensor(t: DenseTensor3, s: SubspaceTriple) -> DenseTensor3:
    """Coordinates of the projection of ``t`` in the frames of ``s``.

    Entry ``(a, b, c)`` is the inner product of ``t`` with the rank-one
    tensor ``x_a (x) y_b (x) z_c`` of the frames' columns: the result, of
    shape ``(s.x.dim, s.y.dim, s.z.dim)``, is the multilinear product of
    ``t`` with the transposed frames.
    """
    _check_triple(t, s)
    return DenseTensor3(_multilinear(t.data, [sub.frame.T for sub in s]), _fresh=True)


def _frames_tucker(t: DenseTensor3, s: SubspaceTriple) -> TuckerFactorization:
    """The coefficient tensor as core and the transposed frames (views) as factors."""
    return TuckerFactorization(coefficient_tensor(t, s), tuple(sub.frame.T for sub in s))


def project(t: DenseTensor3, s: SubspaceTriple) -> DenseTensor3:
    """Orthogonal projection of ``t`` onto the tensor product of ``s``.

    The reconstruction of the frames' Tucker form (:func:`_frames_tucker`).
    """
    return _frames_tucker(t, s).reconstruct()


def distance(t: DenseTensor3, s: SubspaceTriple) -> float:
    """Distance from ``t`` to the tensor product of the triple ``s``.

    The norm of ``t - project(t, s)``.  Beyond ``t`` it holds one projection,
    which ``reconstruct()`` hands over without a copy, plus one chunk of the
    difference (``tensor_core._residual_norm``).  Pythagoras'
    ``sqrt(|t|^2 - |coefficient_tensor|^2)`` loses all below ``sqrt(eps) * |t|``.
    """
    return _residual_norm(t.data, project(t, s).data)
