import numpy as np
import pytest
from numpy.testing import assert_allclose

from tapprox import (
    DenseTensor3,
    fold,
    hs_inner,
    hs_norm,
    mode_multiply,
    mode_rank,
    multilinear_rank,
    unfold,
)
from tapprox.tensor_core import numerical_rank

from helpers import random_tensor


def brute_force_unfold(t: DenseTensor3, mode: int) -> np.ndarray:
    """Independent triple-loop oracle for the mode unfoldings.

    Row index is the mode's own index; the column index packs the two
    remaining indices (in increasing mode order) lexicographically, the
    later one fastest.
    """
    m1, m2, m3 = t.dims
    rest = {1: (m2, m3), 2: (m1, m3), 3: (m1, m2)}[mode]
    out = np.zeros((t.dims[mode - 1], rest[0] * rest[1]))
    for i1 in range(m1):
        for i2 in range(m2):
            for i3 in range(m3):
                if mode == 1:
                    out[i1, i2 * m3 + i3] = t.data[i1, i2, i3]
                elif mode == 2:
                    out[i2, i1 * m3 + i3] = t.data[i1, i2, i3]
                else:
                    out[i3, i1 * m2 + i2] = t.data[i1, i2, i3]
    return out


# ---------------------------------------------------------------------------
# construction

def test_construction_validates_shape_and_values():
    with pytest.raises(ValueError):
        DenseTensor3(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DenseTensor3(np.zeros((2, 2, 2, 2)))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        DenseTensor3(bad)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        DenseTensor3(bad)


def test_tensor_is_immutable_and_copies_input():
    src = np.zeros((2, 2, 2))
    t = DenseTensor3(src)
    src[0, 0, 0] = 5.0
    assert t.data[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


def test_from_flat_lexicographic_layout():
    t = DenseTensor3.from_flat(np.arange(24.0), (2, 3, 4))
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert t.data[i, j, k] == i * 12 + j * 4 + k
    assert np.array_equal(t.data.ravel(), np.arange(24.0))


def test_from_flat_rejects_wrong_count():
    with pytest.raises(ValueError):
        DenseTensor3.from_flat(np.arange(7.0), (2, 2, 2))
    # The expected count is exact: a fixed-width product would wrap around.
    for dims, count in (((10**7,) * 3, 10**21), ((2**32, 2**32, 1), 2**64)):
        with pytest.raises(ValueError, match=f"expected {count} values"):
            DenseTensor3.from_flat(np.arange(7.0), dims)


# ---------------------------------------------------------------------------
# unfold / fold

@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_matches_triple_loop_oracle(mode):
    rng = np.random.default_rng(41)
    t = random_tensor(rng, (3, 4, 5))
    assert np.array_equal(unfold(t, mode), brute_force_unfold(t, mode))


def test_unfold_shapes():
    t = DenseTensor3(np.zeros((3, 4, 5)))
    assert unfold(t, 1).shape == (3, 20)
    assert unfold(t, 2).shape == (4, 15)
    assert unfold(t, 3).shape == (5, 12)


def test_unfold_invalid_mode():
    t = DenseTensor3(np.zeros((2, 2, 2)))
    for mode in (0, 4, -1):
        with pytest.raises(ValueError):
            unfold(t, mode)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_fold_inverts_unfold_bit_exactly(mode):
    rng = np.random.default_rng(42)
    t = random_tensor(rng, (3, 4, 5))
    back = fold(unfold(t, mode), mode, t.dims)
    assert np.array_equal(back.data, t.data)


def test_fold_single_nonzero_entry_placement():
    # Matrix entry (row 0, column 1) of a mode-1 unfolding with dims
    # (2, 2, 3) corresponds to tensor entry (0, 0, 1): the column index
    # packs (i2, i3) with i3 fastest.
    m = np.zeros((2, 6))
    m[0, 1] = 1.0
    t = fold(m, 1, (2, 2, 3))
    expected = np.zeros((2, 2, 3))
    expected[0, 0, 1] = 1.0
    assert np.array_equal(t.data, expected)


def test_fold_rejects_bad_shape():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 1, (2, 2, 3))
    with pytest.raises(ValueError):
        fold(np.zeros((3, 4)), 2, (2, 2, 3))


# ---------------------------------------------------------------------------
# inner product / norm

def test_hs_inner_of_constant_tensors():
    ones = DenseTensor3(np.ones((2, 2, 2)))
    twos = DenseTensor3(2.0 * np.ones((2, 2, 2)))
    assert hs_inner(ones, twos) == 16.0


def test_hs_inner_disjoint_supports_is_zero():
    a = np.zeros((2, 3, 2))
    b = np.zeros((2, 3, 2))
    a[0, 0, 0] = 3.0
    a[1, 2, 1] = -1.0
    b[0, 1, 0] = 4.0
    b[1, 0, 1] = 2.0
    assert hs_inner(DenseTensor3(a), DenseTensor3(b)) == 0.0


def test_hs_inner_is_the_squared_norm_on_the_diagonal():
    rng = np.random.default_rng(43)
    for _ in range(5):
        t = random_tensor(rng, (3, 2, 4))
        assert_allclose(hs_inner(t, t), hs_norm(t) ** 2, rtol=1e-14)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(DenseTensor3(np.zeros((2, 2, 2))), DenseTensor3(np.zeros((2, 2, 3))))


def test_hs_norm_basics():
    assert hs_norm(DenseTensor3(np.zeros((3, 1, 2)))) == 0.0
    assert_allclose(hs_norm(DenseTensor3(np.ones((2, 2, 2)))), np.sqrt(8.0), rtol=1e-15)


def test_hs_norm_equals_frobenius_of_every_unfolding():
    rng = np.random.default_rng(44)
    t = random_tensor(rng, (4, 3, 5))
    for mode in (1, 2, 3):
        assert_allclose(hs_norm(t), np.linalg.norm(unfold(t, mode)), rtol=1e-14)


# ---------------------------------------------------------------------------
# ranks

def test_mode_ranks_of_rank_one_tensor():
    u, v, w = np.array([1.0, 2.0]), np.array([1.0, -1.0, 0.5]), np.array([2.0, 0.0, 1.0, 3.0])
    t = DenseTensor3(np.einsum("i,j,k->ijk", u, v, w))
    assert multilinear_rank(t) == (1, 1, 1)


def test_mode_ranks_of_zero_tensor():
    assert multilinear_rank(DenseTensor3(np.zeros((2, 3, 4)))) == (0, 0, 0)


def test_mode_ranks_of_diagonal_tensor():
    data = np.zeros((3, 3, 3))
    data[0, 0, 0] = 2.0
    data[1, 1, 1] = -1.0
    t = DenseTensor3(data)
    assert multilinear_rank(t) == (2, 2, 2)


def test_generic_tensor_has_full_mode_ranks():
    rng = np.random.default_rng(45)
    t = random_tensor(rng, (3, 4, 5))
    assert multilinear_rank(t) == (3, 4, 5)


def test_mode_rank_bound():
    rng = np.random.default_rng(46)
    t = random_tensor(rng, (2, 3, 7))
    for mode, bound in ((1, 2), (2, 3), (3, 6)):
        assert mode_rank(t, mode) <= bound


def test_rank_tolerance_is_overridable():
    m = np.diag([1.0, 1e-9])
    assert numerical_rank(m) == 2
    assert numerical_rank(m, rank_tol=1e-6) == 1


# ---------------------------------------------------------------------------
# mode_multiply

def test_mode_multiply_identity_is_a_no_op():
    rng = np.random.default_rng(47)
    t = random_tensor(rng, (2, 3, 4))
    for mode, k in ((1, 2), (2, 3), (3, 4)):
        out = mode_multiply(t, np.eye(k), mode)
        assert_allclose(out.data, t.data, rtol=0, atol=0)


def test_mode_multiply_diagonal_scales_slices():
    rng = np.random.default_rng(48)
    t = random_tensor(rng, (2, 2, 2))
    out = mode_multiply(t, np.diag([2.0, 3.0]), 1)
    assert_allclose(out.data[0], 2.0 * t.data[0], rtol=1e-15)
    assert_allclose(out.data[1], 3.0 * t.data[1], rtol=1e-15)


def test_mode_multiply_contracts_first_matrix_index():
    # result[a, j, k] = sum_i t[i, j, k] * m[i, a], entry by entry
    rng = np.random.default_rng(49)
    t = random_tensor(rng, (3, 2, 2))
    m = rng.standard_normal((3, 4))
    out = mode_multiply(t, m, 1)
    assert out.dims == (4, 2, 2)
    for a in range(4):
        for j in range(2):
            for k in range(2):
                expected = sum(t.data[i, j, k] * m[i, a] for i in range(3))
                assert_allclose(out.data[a, j, k], expected, rtol=1e-13)


def test_mode_multiply_different_modes_commute():
    rng = np.random.default_rng(50)
    t = random_tensor(rng, (3, 4, 5))
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((4, 6))
    one = mode_multiply(mode_multiply(t, a, 1), b, 2)
    two = mode_multiply(mode_multiply(t, b, 2), a, 1)
    assert_allclose(one.data, two.data, rtol=1e-13)


def test_mode_multiply_shape_mismatch():
    t = DenseTensor3(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        mode_multiply(t, np.zeros((3, 3)), 1)
