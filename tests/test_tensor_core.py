import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import tapprox.tensor_core
from tapprox import (
    BstaOptions,
    DenseTensor3,
    IndexSelection,
    Subspace,
    SubspaceTriple,
    bsta_solve,
    coefficient_tensor,
    flrta_approx,
    fold,
    hs_norm,
    multilinear_rank,
    pinv,
    projected_operator,
    select_indices,
    unfold,
    verify_critical_point,
)
from tapprox.tensor_core import (
    _CHUNK,
    TuckerFactorization,
    _float_array,
    _multilinear,
    _residual_norm,
    numerical_rank,
)

from helpers import random_orthonormal, random_tensor


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
    with pytest.raises(ValueError, match="dimensions must be positive"):
        DenseTensor3(np.zeros((0, 2, 2)))
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


def test_fresh_arrays_are_taken_over_and_still_checked():
    arr = np.arange(8.0).reshape(2, 2, 2)
    t = DenseTensor3(arr, _fresh=True)
    assert np.shares_memory(t.data, arr)
    assert not t.data.flags.writeable
    # Taken over only once it is C-ordered float64: anything else is copied.
    assert not np.shares_memory(DenseTensor3(arr.transpose(2, 1, 0), _fresh=True).data, arr)
    arr = np.ones((2, 2, 2))
    arr[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DenseTensor3(arr, _fresh=True)
    rng = np.random.default_rng(3)
    factors = tuple(rng.standard_normal((k, 4)) for k in (2, 3, 2))
    approx = TuckerFactorization(random_tensor(rng, (2, 3, 2)), factors).reconstruct()
    assert not approx.data.flags.writeable
    with pytest.raises(ValueError):
        approx.data[0, 0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_reaches_the_last_chunk(bad):
    # The check runs over chunks of the flat array; a bad value in the last,
    # partial chunk, or in a matrix that is not C-ordered, must still be seen.
    arr = np.zeros((1, 2, _CHUNK + 1))
    arr[0, 1, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        DenseTensor3(arr, _fresh=True)
    m = np.zeros((3, _CHUNK))
    m[2, -1] = bad
    for view in (m.T, m[::-1], m[:, ::-3]):
        with pytest.raises(ValueError, match="finite"):
            _float_array(view)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(*(st.integers(1, 70) for _ in range(3))),
    seed=st.integers(0, 2**32 - 1),
    zero=st.booleans(),
)
@example(dims=(1, 300, 300), seed=1, zero=False)
@example(dims=(6000, 8, 8), seed=2, zero=False)
@example(dims=(1, 2, _CHUNK), seed=3, zero=False)  # exactly two chunks
@example(dims=(1, 1, 2 * _CHUNK + 1), seed=4, zero=False)  # two chunks and one value
@example(dims=(4, 4, 4), seed=5, zero=True)
@example(dims=(6000, 8, 8), seed=6, zero=True)
def test_residual_norm_matches_the_full_difference(dims, seed, zero):
    rng = np.random.default_rng(seed)
    if zero:
        a = b = np.zeros(dims)
    else:
        a = rng.standard_normal(dims)
        b = a + rng.standard_normal(dims) * 10.0 ** rng.integers(-8, 3)
    want = float(np.linalg.norm(a - b))
    assert abs(_residual_norm(a, b) - want) <= 1e-14 * want


# Each size below used to be truncated by int(): 1.9 ran as 1, 2.99 as 2.
_T333 = DenseTensor3(np.arange(27.0).reshape(3, 3, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: BstaOptions(target_ranks=(1.9, 1, 1)),
        lambda: bsta_solve(_T333, BstaOptions(target_ranks=(2.99, 2, 2))),
        lambda: BstaOptions(target_ranks=(1, 1, 1), max_sweeps=2.9),
        lambda: fold(np.zeros((2, 4)), 1, (2, 2, 2.5)),
        lambda: IndexSelection((3, 3, 3), (1.7,), (0,), (2.2,)),
        lambda: IndexSelection((3.0, 3, 3), (1,), (0,), (2,)),
        lambda: select_indices(_T333, (1.5, 1, 1)),
        lambda: select_indices(_T333, (1, 1, 1), trials=2.5),
    ],
    ids=[
        "target_ranks", "bsta_solve", "max_sweeps", "fold",
        "index_sets", "selection_dims", "section_sizes", "trials",
    ],
)
def test_non_integral_sizes_are_refused_not_truncated(call):
    with pytest.raises(ValueError) as exc_info:
        call()
    assert "\n" not in str(exc_info.value)


def test_numpy_integer_sizes_still_pass():
    i = np.int64
    opts = BstaOptions(target_ranks=np.array([2, 1, 1]), max_sweeps=i(3))
    assert opts.target_ranks == (2, 1, 1) and opts.max_sweeps == 3
    assert type(opts.max_sweeps) is int
    sel = IndexSelection((i(3), 3, 3), (i(2), i(0)), (i(1),), (i(2),))
    assert sel.dims == (3, 3, 3) and sel.i_set == (0, 2)
    assert select_indices(_T333, (i(1), 1, 1), trials=i(2)).sizes == (1, 1, 1)


# ---------------------------------------------------------------------------
# the multilinear product

@settings(max_examples=80, deadline=None)
@given(
    dims=st.tuples(*(st.integers(1, 8) for _ in range(3))),
    rows=st.tuples(*(st.integers(1, 10) for _ in range(3))),
    seed=st.integers(0, 2**32 - 1),
    zero=st.booleans(),
)
@example(dims=(1, 6, 6), rows=(1, 3, 3), seed=1, zero=False)  # 1 x n x n, contracting
@example(dims=(5, 6, 7), rows=(5, 6, 7), seed=2, zero=False)  # rank = dim
@example(dims=(2, 3, 2), rows=(7, 9, 5), seed=3, zero=False)  # expanding
@example(dims=(8, 2, 5), rows=(3, 6, 5), seed=4, zero=False)  # mixed
@example(dims=(4, 4, 4), rows=(2, 6, 4), seed=5, zero=True)
def test_multilinear_matches_the_einsum_reference(dims, rows, seed, zero):
    # Each mode-j matrix is rows[j] x dims[j]: contracting, expanding or
    # square.  Every entry is within 1e-13 of the entry the same product of
    # absolute values gives, the scale its rounding error is bounded by.
    rng = np.random.default_rng(seed)
    data = np.zeros(dims) if zero else rng.standard_normal(dims)
    mats = [rng.standard_normal((k, m)) for k, m in zip(rows, dims)]
    want = np.einsum("abc,ia,jb,kc->ijk", data, *mats)
    scale = np.einsum("abc,ia,jb,kc->ijk", np.abs(data), *map(np.abs, mats))
    got = _multilinear(data, mats)
    assert got.shape == rows
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_multilinear_contracts_the_most_shrinking_mode_first(monkeypatch):
    # At ranks (30, 30, 1) the mode-3 frame shrinks the 30^3 tensor 30-fold;
    # the two square frames then follow in axis order.
    axes = []
    real = tapprox.tensor_core._mode_product

    def spy(data, mat, ax):
        axes.append(ax)
        return real(data, mat, ax)

    monkeypatch.setattr(tapprox.tensor_core, "_mode_product", spy)
    rng = np.random.default_rng(43)
    t = random_tensor(rng, (30, 30, 30))
    s = SubspaceTriple(*(Subspace(random_orthonormal(rng, 30, k)) for k in (30, 30, 1)))
    assert coefficient_tensor(t, s).dims == (30, 30, 1)
    assert axes == [2, 0, 1]


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
    # A float mode equal to an int is refused as every int argument is, not
    # passed on to die in a reshape with a TypeError.
    t = DenseTensor3(np.zeros((2, 2, 2)))
    for mode in (0, 4, -1, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=r"^mode\b"):
            unfold(t, mode)
    with pytest.raises(ValueError, match=r"^mode\b"):
        fold(np.zeros((2, 4)), 2.0, t.dims)
    sub = Subspace(np.eye(2, 1))
    with pytest.raises(ValueError, match=r"^mode\b"):
        projected_operator(t, np.float64(3.0), sub, sub)


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
# norm

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
    assert all(k <= bound for k, bound in zip(multilinear_rank(t), (2, 3, 6)))


def test_rank_tolerance_is_overridable():
    m = np.diag([1.0, 1e-9])
    assert numerical_rank(m) == 2
    assert numerical_rank(m, rank_tol=1e-6) == 1


# ---------------------------------------------------------------------------
# one tolerance rule

_ONES = DenseTensor3(np.ones((2, 2, 2)))

#: Per caller: the call, the name its message gives the tolerance, and
#: whether the rule is positive (> 0) rather than non-negative (>= 0).
_TOLERANCE_CALLERS = {
    "BstaOptions.rel_tol": (lambda tol: BstaOptions((1, 1, 1), rel_tol=tol), "rel_tol", True),
    "BstaOptions.crit_tol": (lambda tol: BstaOptions((1, 1, 1), crit_tol=tol), "crit_tol", True),
    "verify_critical_point": (
        lambda tol: verify_critical_point(
            _ONES, SubspaceTriple(*[Subspace(np.eye(2)[:, :1])] * 3), tol
        ),
        "tol",
        True,
    ),
    "pinv": (lambda tol: pinv(np.eye(3), tol), "rank tolerance", False),
    "numerical_rank": (lambda tol: numerical_rank(np.eye(3), tol), "rank tolerance", False),
    "flrta_approx": (
        lambda tol: flrta_approx(_ONES, IndexSelection(_ONES.dims, (0,), (0,), (0,)), tol),
        "rank tolerance",
        False,
    ),
}


@pytest.mark.parametrize(
    "caller, tol",
    [
        (caller, tol)
        for caller, (_, _, positive) in _TOLERANCE_CALLERS.items()
        for tol in (float("inf"), float("nan"), -1.0) + ((0.0,) if positive else ())
    ],
)
def test_every_tolerance_must_be_finite(caller, tol):
    call, name, positive = _TOLERANCE_CALLERS[caller]
    with pytest.raises(ValueError) as info:
        call(tol)
    bound = "> 0" if positive else ">= 0"
    assert str(info.value) == f"{name} must be finite and {bound}, got {tol}"
