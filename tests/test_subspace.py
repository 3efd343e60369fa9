import numpy as np
import pytest
from numpy.testing import assert_allclose

from tapprox import (
    DenseTensor3,
    Subspace,
    SubspaceTriple,
    coefficient_tensor,
    distance,
    hs_norm,
    project,
    verify_critical_point,
)

from helpers import random_subspace_triple, random_tensor, same_subspace


def axis_triple(dims, ranks) -> SubspaceTriple:
    """Triple of coordinate subspaces spanned by the leading basis vectors."""
    return SubspaceTriple(
        *(Subspace(np.eye(m)[:, :k]) for m, k in zip(dims, ranks))
    )


# ---------------------------------------------------------------------------
# Subspace

def test_subspace_accepts_orthonormal_frame():
    s = Subspace(np.eye(4)[:, :2])
    assert (s.ambient_dim, s.dim) == (4, 2)
    assert repr(s) == "Subspace(ambient_dim=4, dim=2)"


def test_subspace_rejects_non_orthonormal_frame():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_subspace_rejects_too_many_columns():
    with pytest.raises(ValueError):
        Subspace(np.ones((2, 3)))


def test_subspace_frame_is_immutable():
    s = Subspace(np.eye(3)[:, :1])
    with pytest.raises(ValueError):
        s.frame[0, 0] = 2.0


# ---------------------------------------------------------------------------
# coefficient_tensor

def test_coefficient_tensor_with_full_identity_frames():
    rng = np.random.default_rng(61)
    t = random_tensor(rng, (2, 3, 4))
    s = axis_triple((2, 3, 4), (2, 3, 4))
    assert_allclose(coefficient_tensor(t, s).data, t.data, rtol=0, atol=0)


def test_coefficient_tensor_of_rank_one_tensor():
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 2.0, 2.0])
    w = np.array([0.0, 5.0])
    t = DenseTensor3(np.einsum("i,j,k->ijk", u, v, w))
    s = SubspaceTriple(
        Subspace((u / np.linalg.norm(u))[:, None]),
        Subspace((v / np.linalg.norm(v))[:, None]),
        Subspace((w / np.linalg.norm(w))[:, None]),
    )
    assert tuple(s) == (s.x, s.y, s.z)
    assert (s[0], s[1], s[2]) == (s.x, s.y, s.z)
    assert s.ambient_dims == (2, 3, 2)
    c = coefficient_tensor(t, s)
    assert c.dims == (1, 1, 1)
    assert_allclose(abs(c.data[0, 0, 0]), 5.0 * 3.0 * 5.0, rtol=1e-14)


def test_coefficient_tensor_orthogonal_subspace_is_zero():
    data = np.zeros((3, 2, 2))
    data[0] = 1.0  # supported only on the first mode-1 slice
    t = DenseTensor3(data)
    s = SubspaceTriple(
        Subspace(np.eye(3)[:, 1:]),  # misses e1
        Subspace(np.eye(2)),
        Subspace(np.eye(2)),
    )
    assert hs_norm(coefficient_tensor(t, s)) == 0.0


def test_coefficient_tensor_never_exceeds_the_norm():
    rng = np.random.default_rng(62)
    for _ in range(10):
        t = random_tensor(rng, (4, 5, 3))
        s = random_subspace_triple(rng, (4, 5, 3), (2, 2, 2))
        assert hs_norm(coefficient_tensor(t, s)) <= hs_norm(t) * (1 + 1e-12)


def test_dimension_mismatch_is_rejected():
    t = DenseTensor3(np.zeros((2, 3, 4)))
    s = axis_triple((2, 3, 5), (1, 1, 1))
    for op in (coefficient_tensor, project, distance, verify_critical_point):
        with pytest.raises(ValueError):
            op(t, s)


# ---------------------------------------------------------------------------
# project / distance

def test_project_with_full_frames_is_identity():
    rng = np.random.default_rng(63)
    t = random_tensor(rng, (3, 4, 2))
    s = random_subspace_triple(rng, (3, 4, 2), (3, 4, 2))
    assert_allclose(project(t, s).data, t.data, rtol=1e-12, atol=1e-13)


def test_project_onto_axis_subspaces_masks_entries():
    rng = np.random.default_rng(64)
    t = random_tensor(rng, (3, 3, 3))
    s = axis_triple((3, 3, 3), (2, 1, 3))
    expected = t.data.copy()
    expected[2, :, :] = 0.0
    expected[:, 1:, :] = 0.0
    assert_allclose(project(t, s).data, expected, rtol=0, atol=1e-15)
    assert_allclose(
        distance(t, s), np.linalg.norm(t.data - expected), rtol=1e-12
    )


def test_project_is_idempotent():
    rng = np.random.default_rng(65)
    t = random_tensor(rng, (4, 4, 4))
    s = random_subspace_triple(rng, (4, 4, 4), (2, 3, 1))
    once = project(t, s)
    twice = project(once, s)
    assert_allclose(twice.data, once.data, rtol=1e-12, atol=1e-14)


def test_projection_depends_only_on_the_subspace():
    rng = np.random.default_rng(66)
    t = random_tensor(rng, (4, 3, 5))
    s = random_subspace_triple(rng, (4, 3, 5), (2, 2, 2))
    # rotate each frame by a random orthogonal matrix
    rots = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(3)]
    s2 = SubspaceTriple(
        Subspace(s.x.frame @ rots[0]),
        Subspace(s.y.frame @ rots[1]),
        Subspace(s.z.frame @ rots[2]),
    )
    assert same_subspace(s.x, s2.x)
    assert_allclose(project(t, s2).data, project(t, s).data, rtol=1e-11, atol=1e-13)
    assert_allclose(distance(t, s2), distance(t, s), rtol=1e-11)


def test_distance_zero_inside_the_product():
    # One 5x4x3 case, then 20 random 6^3 cases at ranks (3, 3, 3).
    rng = np.random.default_rng(69)
    cases = [(np.random.default_rng(67), (5, 4, 3), (2, 2, 2))] + [(rng, (6, 6, 6), (3, 3, 3))] * 20
    for rng, dims, ranks in cases:
        s = random_subspace_triple(rng, dims, ranks)
        core = rng.standard_normal(ranks)
        inside = DenseTensor3(
            np.einsum("abc,ia,jb,kc->ijk", core, s.x.frame, s.y.frame, s.z.frame)
        )
        # the direct residual, free of the norm difference's sqrt(eps) floor
        d = distance(inside, s)
        assert np.isfinite(d) and d >= 0.0
        assert d <= 1e-13 * hs_norm(inside)
        assert_allclose(project(inside, s).data, inside.data, rtol=1e-11, atol=1e-13)


def test_distance_of_orthogonal_tensor_is_the_norm():
    data = np.zeros((3, 2, 2))
    data[2] = np.arange(4.0).reshape(2, 2) + 1.0
    t = DenseTensor3(data)
    s = SubspaceTriple(
        Subspace(np.eye(3)[:, :2]), Subspace(np.eye(2)), Subspace(np.eye(2))
    )
    assert_allclose(distance(t, s), hs_norm(t), rtol=1e-14)
    assert hs_norm(project(t, s)) <= 1e-14


def test_pythagoras_identity():
    rng = np.random.default_rng(68)
    for _ in range(20):
        t = random_tensor(rng, (5, 6, 7))
        ranks = tuple(int(rng.integers(1, m + 1)) for m in (5, 6, 7))
        s = random_subspace_triple(rng, (5, 6, 7), ranks)
        total = hs_norm(t) ** 2
        split = hs_norm(project(t, s)) ** 2 + distance(t, s) ** 2
        assert abs(total - split) <= 1e-10 * total

