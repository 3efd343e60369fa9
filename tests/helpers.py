"""Shared constructions for the test suite."""
from __future__ import annotations

import numpy as np

from tapprox import DenseTensor3, Subspace, SubspaceTriple


def random_tensor(rng, dims) -> DenseTensor3:
    return DenseTensor3(rng.standard_normal(dims))


def random_orthonormal(rng, m: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return q


def random_subspace_triple(rng, dims, ranks) -> SubspaceTriple:
    frames = [random_orthonormal(rng, m, k) for m, k in zip(dims, ranks)]
    return SubspaceTriple(*(Subspace(f) for f in frames))


def tucker_tensor(rng, dims, mlrank) -> DenseTensor3:
    """Random tensor of exact multilinear rank ``mlrank`` (generically)."""
    core = rng.standard_normal(mlrank)
    qs = [random_orthonormal(rng, m, k) for m, k in zip(dims, mlrank)]
    data = np.einsum("abc,ia,jb,kc->ijk", core, *qs)
    return DenseTensor3(data)


def projector(frame: np.ndarray) -> np.ndarray:
    return frame @ frame.T


def read_matrix(path) -> np.ndarray:
    """A written ``m2`` matrix file, read by NumPy rather than the package."""
    return np.loadtxt(path, skiprows=1, ndmin=2)


def same_subspace(a, b, tol: float = 1e-10) -> bool:
    """Frame-independent comparison of two subspaces."""
    return bool(np.linalg.norm(projector(a.frame) - projector(b.frame)) <= tol)
