import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import tapprox.bsta
from tapprox import (
    BstaOptions,
    DenseTensor3,
    Subspace,
    SubspaceTriple,
    bsta_solve,
    coefficient_tensor,
    distance,
    fold,
    hosvd_init,
    hs_norm,
    project,
    projected_operator,
    random_triple,
    select_indices,
    unfold,
    verify_critical_point,
)

from helpers import (
    random_orthonormal,
    random_subspace_triple,
    random_tensor,
    same_subspace,
    tucker_tensor,
)


def spike_tensor() -> DenseTensor3:
    """3 * e1 (x) e1 (x) e1 + 1 * e2 (x) e2 (x) e2 in dimensions (2, 2, 2)."""
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 3.0
    data[1, 1, 1] = 1.0
    return DenseTensor3(data)


def e2_triple() -> SubspaceTriple:
    f = np.array([[0.0], [1.0]])
    return SubspaceTriple(Subspace(f), Subspace(f), Subspace(f))


@st.composite
def tensor_and_ranks(draw):
    """A tensor (Gaussian or zero) with dims in 1..5 and valid target ranks."""
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    ranks = tuple(draw(st.integers(1, m)) for m in dims)
    seed = draw(st.integers(0, 2**32 - 1))
    zero = draw(st.booleans())
    data = np.zeros(dims) if zero else np.random.default_rng(seed).standard_normal(dims)
    return DenseTensor3(data), ranks


def _case(dims, ranks, seed=0):
    return DenseTensor3(np.random.default_rng(seed).standard_normal(dims)), ranks


# ---------------------------------------------------------------------------
# projected_operator

def test_projected_operator_with_full_frames_is_the_unfolding():
    rng = np.random.default_rng(80)
    t = random_tensor(rng, (3, 4, 5))
    full = [Subspace(np.eye(m)) for m in t.dims]
    pairs = {1: (full[1], full[2]), 2: (full[0], full[2]), 3: (full[0], full[1])}
    for mode in (1, 2, 3):
        assert_allclose(
            projected_operator(t, mode, *pairs[mode]), unfold(t, mode), rtol=1e-14
        )


def test_projected_operator_entries_by_enumeration():
    rng = np.random.default_rng(81)
    t = random_tensor(rng, (3, 4, 5))
    a = Subspace(np.linalg.qr(rng.standard_normal((4, 2)))[0])
    b = Subspace(np.linalg.qr(rng.standard_normal((5, 3)))[0])
    m = projected_operator(t, 1, a, b)
    assert m.shape == (3, 6)
    for i in range(3):
        for col_a in range(2):
            for col_b in range(3):
                expected = np.einsum(
                    "jk,j,k->", t.data[i], a.frame[:, col_a], b.frame[:, col_b]
                )
                # columns are packed with the later mode fastest
                assert_allclose(m[i, col_a * 3 + col_b], expected, rtol=1e-12)


def test_projected_operator_on_rank_one_tensor():
    u = np.array([2.0, 0.0, 1.0])
    v = np.array([0.0, 1.0])
    w = np.array([3.0, 4.0])
    t = DenseTensor3(np.einsum("i,j,k->ijk", u, v, w))
    a = Subspace(v[:, None])
    b = Subspace((w / 5.0)[:, None])
    m = projected_operator(t, 1, a, b)
    assert_allclose(m, 5.0 * u[:, None], rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks(), st.integers(0, 2**32 - 1))
@example(_case((40, 2, 3), (3, 2, 2)), 1)
@example(_case((1, 4, 4), (1, 2, 3)), 2)
def test_projected_operator_matches_the_einsum_contraction(case, seed):
    # The contraction as first written; the matrix products sum in another
    # order, so agreement is to rounding.
    t, ranks = case
    s = random_triple(t.dims, ranks, seed=seed)
    subs = (s.x, s.y, s.z)
    for mode, eq in ((1, "ijk,jb,kc->ibc"), (2, "ijk,ia,kc->jac"), (3, "ijk,ia,jb->kab")):
        a, b = (subs[k] for k in range(3) if k != mode - 1)
        expected = np.einsum(eq, t.data, a.frame, b.frame).reshape(t.dims[mode - 1], -1)
        got = projected_operator(t, mode, a, b)
        assert_allclose(got, expected, rtol=1e-12, atol=1e-14 * hs_norm(t))


def _three_branch_operator(t, mode, a, b):
    # projected_operator as it was written before the mode product: one
    # hand-made branch per mode.
    m1, m2, m3 = t.dims
    if mode == 1:
        out = (a.frame.T @ t.data).reshape(-1, m3) @ b.frame
    else:
        w = (a.frame.T @ t.data.reshape(m1, -1)).reshape(-1, m2, m3)
        if mode == 2:
            out = (w.reshape(-1, m3) @ b.frame).reshape(-1, m2, b.dim).transpose(1, 0, 2)
        else:
            out = (b.frame.T @ w).transpose(2, 0, 1)
    return out.reshape(t.dims[mode - 1], -1)


@pytest.mark.parametrize("dims, ranks", [((60, 60, 60), (6, 6, 6)), ((6000, 8, 8), (4, 4, 4))])
def test_projected_operator_is_bit_identical_to_the_three_branch_formulas(dims, ranks):
    # The same matrix products on the same shapes, so the same bits: this is
    # what keeps objective histories, sweeps and frames unchanged.
    t, _ = _case(dims, ranks, seed=44)
    s = random_triple(dims, ranks, seed=45)
    for j in range(3):
        a, b = (s[k] for k in range(3) if k != j)
        want = _three_branch_operator(t, j + 1, a, b)
        assert np.array_equal(projected_operator(t, j + 1, a, b), want)


def test_projected_operator_checks_ambient_dims():
    t = DenseTensor3(np.zeros((3, 4, 5)))
    a = Subspace(np.eye(4)[:, :1])
    with pytest.raises(ValueError):
        projected_operator(t, 1, a, a)


# ---------------------------------------------------------------------------
# initialization

def test_hosvd_init_recovers_an_exact_product():
    # distance() is the direct residual, so it has no sqrt(machine eps)
    # floor.  The (12, 2, 3) tensor has a tall mode-1 unfolding (12 x 6),
    # the other unfoldings are wide, so both ways of finding a frame are
    # covered.
    for seed in range(82, 92):
        rng = np.random.default_rng(seed)
        for dims, ranks in (((6, 5, 4), (2, 2, 3)), ((12, 2, 3), (3, 2, 3))):
            t = tucker_tensor(rng, dims, ranks)
            s = hosvd_init(t, ranks)
            assert distance(t, s) <= 1e-10 * hs_norm(t), (seed, dims)
            # Any iterable of three ranks is accepted, as by random_triple.
            again = hosvd_init(t, iter(ranks))
            assert all(np.array_equal(a.frame, b.frame) for a, b in zip(again, s))


def _tail_sq(t, mode, k):
    """Squared singular values of ``unfold(t, mode)`` past ``k``, summed from the small end."""
    sv = np.linalg.svd(unfold(t, mode), compute_uv=False)
    return sum(float(v) ** 2 for v in sv[k:][::-1])


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks())
@example(_case((1, 4, 4), (1, 2, 4)))
@example(_case((3, 4, 2), (3, 4, 2)))
@example(_case((12, 2, 3), (5, 2, 3)))
@example(_case((7, 2, 3), (7, 1, 2)))
# A tall first-visited unfolding with fewer columns than its rank, in each mode.
@example(_case((10, 1, 2), (3, 1, 2)))
@example(_case((1, 10, 2), (1, 3, 2)))
@example(_case((2, 1, 10), (2, 1, 3)))
@example((DenseTensor3(np.zeros((4, 1, 3))), (2, 1, 3)))
def test_st_hosvd_frames_are_orthonormal_and_meet_the_tail_bound(case):
    # Energy, not subspaces, is compared, so the check also holds when
    # singular values tie and the dominant subspace is not unique.  Only the
    # first-visited mode (smallest k/m, ties in axis order) sees the full
    # tensor, so only its frame captures its unfolding's top energy; every
    # start meets the HOSVD error bound sqrt(sum_j tail_j^2).
    t, ranks = case
    s = hosvd_init(t, ranks)
    norm_sq = hs_norm(t) ** 2
    for mode, sub, k in zip((1, 2, 3), s, ranks):
        f = sub.frame
        assert f.shape == (t.dims[mode - 1], k)
        assert np.max(np.abs(f.T @ f - np.eye(k))) <= 1e-12
    first = min(range(3), key=lambda j: (ranks[j] / t.dims[j], j))
    u = unfold(t, first + 1)
    top = float(np.sum(np.linalg.svd(u, compute_uv=False)[: ranks[first]] ** 2))
    captured = float(np.linalg.norm(s[first].frame.T @ u) ** 2)
    assert abs(captured - top) <= 1e-12 * norm_sq
    bound = sum(_tail_sq(t, j + 1, k) for j, k in enumerate(ranks))
    assert distance(t, s) ** 2 <= bound + 1e-12 * norm_sq


def test_st_hosvd_visits_the_most_shrinking_mode_first(monkeypatch):
    # At dims (8, 12, 10) and ranks (4, 2, 5), k/m is 0.5, 0.17 and 0.5: mode
    # 2 first, then modes 1 and 3 in axis order.  Mode 2's 12 x 80 unfolding
    # is wide, so the frame rule gets only its shape and its 12 x 12 Gram
    # matrix, summed from the slices of the tensor.  The later unfoldings
    # are of the truncated tensor: 8 x (2*10), wide, and then 10 x (4*2),
    # tall, whose short side gives the 8 x 8 Gram matrix.
    frames, grams = [], []
    frame_rule, eigh = tapprox.bsta._dominant_left_frame, np.linalg.eigh

    def frame_spy(m, k, *rest):
        frames.append(m if isinstance(m, tuple) else np.array(m))
        return frame_rule(m, k, *rest)

    def eigh_spy(g):
        grams.append(np.array(g))
        return eigh(g)

    monkeypatch.setattr(tapprox.bsta, "_dominant_left_frame", frame_spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    t = random_tensor(np.random.default_rng(102), (8, 12, 10))
    s = hosvd_init(t, (4, 2, 5))
    assert frames[0] == (12, 80)
    assert [m.shape for m in frames[1:]] == [(8, 20), (10, 8)]
    assert [g.shape for g in grams] == [(12, 12), (8, 8), (8, 8)]
    x, y = s.x.frame, s.y.frame
    u2 = unfold(t, 2)
    assert_allclose(grams[0], u2 @ u2.T, rtol=1e-13)
    truncated = np.einsum("ijk,jb->ibk", t.data, y)
    assert_allclose(frames[1], truncated.reshape(8, 20), rtol=1e-13, atol=1e-14)
    truncated = np.einsum("ibk,ia->kab", truncated, x)
    assert_allclose(frames[2], truncated.reshape(10, 8), rtol=1e-13, atol=1e-14)
    assert_allclose(grams[2], frames[2].T @ frames[2], rtol=1e-13)


@pytest.mark.parametrize("ranks", [(10, 10, 10), (10, 3, 10), (10, 10, 3)])
def test_hosvd_init_copies_no_unfolding_of_the_tensor(ranks):
    # Whichever mode goes first, its wide unfolding's Gram matrix comes from
    # t.data in place; an unfold copy of mode 2 or 3 alone is 1x the tensor.
    t = random_tensor(np.random.default_rng(103), (100, 100, 100))
    tracemalloc.start()
    try:
        hosvd_init(t, ranks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * t.data.nbytes, (ranks, peak / t.data.nbytes)


def test_hosvd_init_rejects_bad_ranks():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    for ranks in ((0, 1, 1), (1, 4, 1), (1, 1, -2)):
        with pytest.raises(ValueError):
            hosvd_init(t, ranks)


def test_random_triple_is_deterministic_per_seed():
    a = random_triple((5, 4, 3), (2, 2, 1), seed=9)
    b = random_triple((5, 4, 3), (2, 2, 1), seed=9)
    for fa, fb in ((a.x, b.x), (a.y, b.y), (a.z, b.z)):
        assert np.array_equal(fa.frame, fb.frame)


@pytest.mark.parametrize(
    "dims", [(5, 5, 5, 5), (5, 5), (5.0, 5, 5)], ids=["four-dims", "two-dims", "float-dim"]
)
def test_random_triple_rejects_dims_that_are_not_three_ints(dims):
    # zip would take the first three of four dims, and two dims or a float
    # would fail deep inside with a TypeError.
    with pytest.raises(ValueError, match=r"^dims\b") as exc_info:
        random_triple(dims, (2, 2, 2))
    assert "\n" not in str(exc_info.value)


@pytest.mark.parametrize("seed", [-1, 2.9, None])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: BstaOptions(target_ranks=(2, 2, 2), seed=seed),
        lambda seed: random_triple((4, 4, 4), (2, 2, 2), seed=seed),
        lambda seed: select_indices(
            random_tensor(np.random.default_rng(0), (4, 4, 4)), (2, 2, 2), seed=seed
        ),
    ],
    ids=["BstaOptions", "random_triple", "select_indices"],
)
def test_library_seeds_are_non_negative_ints(call, seed):
    # None would draw fresh OS entropy: a run nobody could repeat.
    with pytest.raises(ValueError, match=r"^seed\b") as exc_info:
        call(seed)
    assert "\n" not in str(exc_info.value)


# ---------------------------------------------------------------------------
# one sweep (bsta._sweep, the solver's kernel on raw frames)

def sweep_triple(t, s):
    """One sweep of the solver's kernel on the frames of ``s``, back as a triple."""
    frames, _, fs, _ = tapprox.bsta._sweep(t.data, [sub.frame for sub in s])
    return SubspaceTriple(*(Subspace(f) for f in frames)), fs


def test_a_sweep_reads_the_full_tensor_twice(monkeypatch):
    # The mode-1 operator reads t once (t x_2 Y^T, then x_3 Z^T on the
    # result); t x_1 X^T at the updated X is the other read, shared by the
    # mode-2 and mode-3 operators.
    rng = np.random.default_rng(104)
    t = random_tensor(rng, (9, 9, 9))
    frames = [random_orthonormal(rng, 9, 3) for _ in range(3)]
    full = []
    product = tapprox.tensor_core._mode_product

    def spy(data, mat, ax):
        if data.size == t.size:
            full.append(ax)
        return product(data, mat, ax)

    monkeypatch.setattr(tapprox.bsta, "_mode_product", spy)
    monkeypatch.setattr(tapprox.tensor_core, "_mode_product", spy)
    for sweeps in range(1, 4):
        frames, _, _, _ = tapprox.bsta._sweep(t.data, frames)
        assert full == [1, 0] * sweeps


def full_size_products(monkeypatch, t, run):
    """``run()``'s result and the axes of its mode products on arrays of ``t``'s size."""
    full = []
    product = tapprox.tensor_core._mode_product

    def spy(data, mat, ax):
        if data.size == t.size:
            full.append(ax)
        return product(data, mat, ax)

    monkeypatch.setattr(tapprox.bsta, "_mode_product", spy)
    monkeypatch.setattr(tapprox.tensor_core, "_mode_product", spy)
    return run(), full


def test_a_one_sweep_solve_reads_the_full_tensor_five_times(monkeypatch):
    # The start's mode-1 truncation (its Gram matrix reads the mode-1
    # unfolding in place), the sweep's two reads, the certificate's mode-1
    # operator and distance's coefficient tensor.  The certificate's mode-2
    # and mode-3 operators and the Tucker core come from the sweep's
    # t x_1 X^T at the final X, since the start visits mode 1 first.
    t = random_tensor(np.random.default_rng(106), (9, 9, 9))
    assert tapprox.tensor_core._shrink_order((3, 3, 3), t.dims)[0] == 0
    opts = BstaOptions(target_ranks=(3, 3, 3), max_sweeps=1)
    res, full = full_size_products(monkeypatch, t, lambda: bsta_solve(t, opts))
    assert res.sweeps == 1
    assert full == [0, 1, 0, 1, 0]


@pytest.mark.parametrize(
    "dims, expected",
    [((70, 4, 4), [0, 1, 0]), ((4, 70, 4), [0, 1, 1, 1]), ((4, 4, 70), [0, 1, 2, 2])],
    ids=["long-mode-1", "long-mode-2", "long-mode-3"],
)
def test_a_one_sweep_long_mode_solve_forms_t_x1_xt_once(monkeypatch, dims, expected):
    # The sweeps run on the compressed tensor, whose products are not
    # full-size.  The finish forms t x_1 X^T once at the mapped-back frames
    # for the certificate's mode-2 and mode-3 operators; mode 1's operator
    # starts with t x_2 Y^T.  When the multilinear product visits mode 1
    # first, the Tucker core is a small product of t x_1 X^T; otherwise
    # coefficient_tensor reads t first in the long mode.  distance's
    # coefficient tensor is the last read.
    t = random_tensor(np.random.default_rng(107), dims)
    assert tapprox.bsta._long_mode(dims, (2, 2, 2)) is not None
    opts = BstaOptions(target_ranks=(2, 2, 2), max_sweeps=1)
    res, full = full_size_products(monkeypatch, t, lambda: bsta_solve(t, opts))
    assert res.sweeps == 1
    assert full == expected


def test_sweep_objectives_never_decrease():
    rng = np.random.default_rng(83)
    t = random_tensor(rng, (5, 5, 5))
    s = random_subspace_triple(rng, (5, 5, 5), (2, 3, 2))
    prev = hs_norm(coefficient_tensor(t, s)) ** 2
    for _ in range(6):
        s, fs = sweep_triple(t, s)
        for f in fs:
            assert f >= prev - 1e-10
            prev = f


def test_sweep_keeps_an_adversarial_fixed_point():
    # The dominant one-dimensional triple is span(e1)^3, but span(e2)^3
    # is a critical point with objective 1; a sweep must not leave it.
    t = spike_tensor()
    s0 = e2_triple()
    s1, fs = sweep_triple(t, s0)
    assert fs == (1.0, 1.0, 1.0)
    for before, after in ((s0.x, s1.x), (s0.y, s1.y), (s0.z, s1.z)):
        assert same_subspace(before, after)
    resid, ok = verify_critical_point(t, s1, 1e-6)
    assert ok and resid <= 1e-12


def test_sweep_fixes_an_already_optimal_triple():
    rng = np.random.default_rng(84)
    s = random_subspace_triple(rng, (6, 5, 4), (2, 3, 2))
    core = rng.standard_normal((2, 3, 2))
    t = DenseTensor3(
        np.einsum("abc,ia,jb,kc->ijk", core, s.x.frame, s.y.frame, s.z.frame)
    )
    s1, fs = sweep_triple(t, s)
    norm_sq = hs_norm(t) ** 2
    assert_allclose(fs, (norm_sq,) * 3, rtol=1e-12)
    for before, after in ((s.x, s1.x), (s.y, s1.y), (s.z, s1.z)):
        assert same_subspace(before, after, tol=1e-8)


def test_sweep_is_frame_rotation_invariant():
    rng = np.random.default_rng(85)
    t = random_tensor(rng, (5, 4, 6))
    s = random_subspace_triple(rng, (5, 4, 6), (2, 2, 3))
    rots = [np.linalg.qr(rng.standard_normal((k, k)))[0] for k in (2, 2, 3)]
    s_rot = SubspaceTriple(
        Subspace(s.x.frame @ rots[0]),
        Subspace(s.y.frame @ rots[1]),
        Subspace(s.z.frame @ rots[2]),
    )
    a, b = s, s_rot
    for _ in range(5):
        a, fa = sweep_triple(t, a)
        b, fb = sweep_triple(t, b)
        assert_allclose(fa, fb, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks(), st.integers(0, 2**32 - 1))
@example(_case((30, 3, 3), (5, 1, 2)), 90)  # mode 1: 2 operator columns for rank 5
@example(_case((3, 4, 4), (2, 2, 2)), 0)  # wide mode-1 operator, 3 x 4
@example(_case((4, 4, 4), (2, 2, 2)), 0)  # square operators, 4 x 4
@example(_case((6, 2, 2), (2, 2, 2)), 0)  # tall mode-1 operator, 6 x 4
@example((DenseTensor3(np.zeros((4, 3, 3))), (3, 1, 2)), 0)
def test_completed_sweep_frame_captures_all_of_its_operator(case, seed):
    # Each mode's operator is the one the sweep saw: the modes before it
    # hold their updated frames, the modes after it the start's.  Energy,
    # not subspaces, is compared, so ties across k do not matter.
    t, ranks = case
    s = random_triple(t.dims, ranks, seed)
    s1, fs = sweep_triple(t, s)
    norm_sq = hs_norm(t) ** 2
    for j, k in enumerate(ranks):
        f = s1[j].frame
        assert f.shape == (t.dims[j], k)
        assert np.max(np.abs(f.T @ f - np.eye(k))) <= 1e-12
        m = projected_operator(t, j + 1, *(s1[i] if i < j else s[i] for i in range(3) if i != j))
        top = float(np.sum(np.linalg.svd(m, compute_uv=False)[:k] ** 2))
        assert abs(fs[j] - top) <= 1e-12 * norm_sq


def _frame_matrix(rows, cols, kind, seed=0):
    """A ``rows x cols`` matrix: Gaussian, or ``U diag(s) V^T`` for a chosen spectrum.

    The spectrum ``s`` is zero, rank-deficient, or graded from 1 down to 1e-6.
    """
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((rows, cols))
    n = min(rows, cols)
    s = {
        "zero": np.zeros(n),
        "rank-deficient": np.where(np.arange(n) < n // 2, rng.uniform(0.5, 2.0, n), 0.0),
        "graded": np.logspace(0, -6, n),
    }[kind]
    return (random_orthonormal(rng, rows, n) * s) @ random_orthonormal(rng, cols, n).T


@st.composite
def frame_rule_cases(draw):
    """A matrix from :func:`_frame_matrix` and a rank ``k`` at most its row count."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "zero", "rank-deficient", "graded"]))
    m = _frame_matrix(rows, cols, kind, draw(st.integers(0, 2**32 - 1)))
    return m, draw(st.integers(1, rows))


@settings(max_examples=100, deadline=None)
@given(frame_rule_cases())
@example((_frame_matrix(3, 7, "gaussian"), 2))  # wide
@example((_frame_matrix(5, 5, "gaussian"), 3))  # square
@example((_frame_matrix(8, 3, "gaussian"), 2))  # tall
@example((_frame_matrix(8, 2, "gaussian"), 5))  # tall, fewer columns than k
@example((_frame_matrix(8, 4, "rank-deficient"), 3))
@example((_frame_matrix(4, 8, "rank-deficient"), 3))
@example((_frame_matrix(6, 3, "zero"), 4))
@example((_frame_matrix(3, 6, "zero"), 2))
@example((_frame_matrix(8, 6, "graded"), 3))  # singular values 1 .. 1e-6
@example((_frame_matrix(6, 8, "graded"), 4))
def test_frame_rule_is_orthonormal_and_captures_the_top_energy(case):
    # Energy, not subspaces, is compared, so ties across k do not matter.
    m, k = case
    f = tapprox.bsta._dominant_left_frame(m, k)
    assert f.shape == (m.shape[0], k)
    assert np.max(np.abs(f.T @ f - np.eye(k))) <= 1e-12
    top = float(np.sum(np.linalg.svd(m, compute_uv=False)[:k] ** 2))
    norm_sq = float(np.sum(m**2))
    assert abs(float(np.linalg.norm(f.T @ m) ** 2) - top) <= 1e-12 * norm_sq
    # Given the shape, the short-side Gram matrix and the product, as
    # _full_mode_frame gives them, the rule returns the same bits.
    g = m.T @ m if m.shape[0] > m.shape[1] else m @ m.T
    again = tapprox.bsta._dominant_left_frame(m.shape, k, g, lambda w: m @ w)
    assert np.array_equal(again, f)


@pytest.mark.parametrize("init", ["hosvd", "random"])
@pytest.mark.parametrize(
    "dims, ranks, zero",
    [
        ((6, 6, 6), (3, 3, 3), False),  # wide 6 x 9 sweep operators
        ((12, 12, 12), (2, 2, 2), False),  # tall 12 x 4 sweep operators
        ((30, 3, 3), (5, 1, 2), False),  # mode 1's operator has 2 columns for rank 5
        ((30, 3, 2), (3, 2, 2), False),  # a compressed long mode
        ((4, 60, 4), (2, 5, 2), False),  # a tall first-visited mode, not compressed
        ((6, 2, 2), (2, 2, 2), True),
    ],
    ids=["cube", "tall-operator", "fewer-columns", "long-mode", "tall-start", "zero"],
)
def test_bsta_takes_no_svd(monkeypatch, dims, ranks, zero, init):
    # Every frame comes from a short-side Gram matrix's eigh, plus one QR
    # for a tall matrix: the start, the sweeps, the long-mode compression
    # and its map back.
    t = DenseTensor3(np.zeros(dims)) if zero else random_tensor(np.random.default_rng(106), dims)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", no_svd)
        res = bsta_solve(t, BstaOptions(target_ranks=ranks, init=init))
        start = hosvd_init(t, ranks)
    assert res.subspaces.ambient_dims == start.ambient_dims == dims


def _compress(t, j, k):
    """The tensor bsta_solve sweeps when mode ``j`` of ``t`` is long, and the map back.

    With ``A`` the mode-``j`` unfolding and ``A^T A = V diag(lam) V^T``,
    largest first, the eigenvalues above ``max(A.shape) * eps * lam_1`` are
    kept.  ``Q`` is the orthonormal factor of ``A V diag(lam)^{-1/2}`` with
    a positive diagonal in ``R``, by Householder QR.  The tensor is ``t x_j
    Q^T``, and a frame ``F`` of it maps back to ``Q F``.  When fewer than
    ``k`` are kept, ``t`` is swept as it is: ``(t, None)``.
    """
    a = unfold(t, j + 1)
    lam, v = np.linalg.eigh(a.T @ a)
    lam, v = lam[::-1], v[:, ::-1]
    kept = int(np.sum(lam > max(a.shape) * np.finfo(float).eps * lam[0])) if lam[0] > 0 else 0
    if k > kept:
        return t, None
    q, r = np.linalg.qr(a @ (v[:, :kept] / np.sqrt(lam[:kept])))
    q = q * np.sign(np.diag(r))
    dims = tuple(kept if i == j else m for i, m in enumerate(t.dims))
    return fold(q.T @ a, j + 1, dims), lambda f: q @ f


def _compressed_case(dims, ranks, j, seed=0):
    return _compress(_case(dims, ranks, seed)[0], j, ranks[j])[0], ranks


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks(), st.integers(0, 2**32 - 1))
@example(_case((1, 4, 4), (1, 2, 3)), 0)  # 1 x n x n
@example(_case((3, 4, 2), (3, 4, 2)), 0)  # rank = dim in every mode
@example((DenseTensor3(np.zeros((3, 4, 2))), (2, 2, 1)), 0)
@example(_compressed_case((30, 3, 2), (3, 2, 2), 0), 0)  # mode 1 compressed to 6 rows
@example(_compressed_case((3, 2, 40), (2, 2, 3), 2), 0)  # mode 3 compressed to 6 rows
def test_sweep_returns_the_objective_of_the_frames_it_was_given(case, seed):
    # bsta_solve's gain test subtracts this from the sweep's last objective,
    # so it must be the start's squared projection norm.
    t, ranks = case
    s = random_triple(t.dims, ranks, seed)
    _, before, _, _ = tapprox.bsta._sweep(t.data, [sub.frame for sub in s])
    want = hs_norm(coefficient_tensor(t, s)) ** 2
    assert abs(before - want) <= 1e-13 * hs_norm(t) ** 2


# ---------------------------------------------------------------------------
# bsta_solve

def test_full_ranks_give_zero_error_in_one_sweep():
    rng = np.random.default_rng(86)
    t = random_tensor(rng, (3, 4, 2))
    res = bsta_solve(t, BstaOptions(target_ranks=(3, 4, 2)))
    assert res.sweeps == 1
    assert res.approx_error <= 1e-12 * hs_norm(t)
    assert res.converged
    assert res.tucker.core.dims == (3, 4, 2)


@pytest.mark.parametrize("init", ["hosvd", "random"])
@pytest.mark.parametrize("ranks", [(2, 3, 2), (3, 4, 3)], ids=["exact", "over"])
def test_exact_low_rank_tensor_is_recovered(ranks, init):
    # Over-specified ranks (3, 4, 3) exceed the multilinear rank, so zero
    # singular values tie across each mode's k while the top one is positive.
    rng = np.random.default_rng(87)
    t = tucker_tensor(rng, (7, 8, 6), (2, 3, 2))
    res = bsta_solve(t, BstaOptions(target_ranks=ranks, init=init))
    assert res.approx_error <= 1e-8 * hs_norm(t)
    assert res.converged
    assert res.critical_point_residual <= 1e-6


def test_single_slice_tensor_matches_matrix_truncation():
    # For an (m, n, 1) tensor the problem is a matrix one: the optimal
    # error is the tail of the singular values.
    rng = np.random.default_rng(88)
    a = rng.standard_normal((6, 5))
    t = DenseTensor3(a[:, :, None])
    svals = np.linalg.svd(a, compute_uv=False)
    for k in range(1, 5):
        res = bsta_solve(t, BstaOptions(target_ranks=(k, k, 1)))
        expected = float(np.sqrt(np.sum(svals[k:] ** 2)))
        assert_allclose(res.approx_error, expected, rtol=1e-9)


def test_objective_history_is_monotone_and_consistent():
    rng = np.random.default_rng(89)
    for init in ("hosvd", "random"):
        t = random_tensor(rng, (6, 6, 6))
        res = bsta_solve(
            t, BstaOptions(target_ranks=(2, 3, 2), init=init, seed=5)
        )
        h = np.asarray(res.objective_history)
        assert len(h) == 3 * res.sweeps
        assert np.all(np.diff(h) >= -1e-10)
        norm_sq = hs_norm(t) ** 2
        assert abs(res.approx_error**2 + h[-1] - norm_sq) <= 1e-10 * norm_sq


def test_core_matches_coefficient_tensor():
    rng = np.random.default_rng(90)
    t = random_tensor(rng, (5, 4, 4))
    res = bsta_solve(t, BstaOptions(target_ranks=(2, 2, 2)))
    assert_allclose(
        res.tucker.core.data, coefficient_tensor(t, res.subspaces).data, rtol=0, atol=0
    )


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks(), st.sampled_from(("hosvd", "random")), st.integers(1, 200))
@example(_case((8, 12, 10), (4, 2, 5)), "hosvd", 200)  # the start visits mode 2 first
@example(_case((6, 6, 6), (1, 3, 2)), "hosvd", 200)  # shrink order (0, 2, 1)
@example(_case((30, 3, 3), (3, 2, 2)), "hosvd", 200)  # compressed long mode
@example(_case((1, 4, 4), (1, 2, 3)), "hosvd", 200)  # 1 x n x n
@example(_case((3, 4, 2), (3, 4, 2)), "hosvd", 200)  # rank = dim
@example((DenseTensor3(np.zeros((3, 4, 2))), (2, 2, 1)), "hosvd", 200)
@example(_case((6, 6, 6), (2, 2, 2)), "random", 1)  # a max_sweeps stop
def test_solve_finish_has_the_bits_of_the_public_layers(case, init, max_sweeps):
    # Where the finish takes operators or the core from the last sweep, they
    # are the products the public functions make, in their order.
    t, ranks = case
    opts = BstaOptions(target_ranks=ranks, init=init, max_sweeps=max_sweeps, seed=7)
    res = bsta_solve(t, opts)
    residual = verify_critical_point(t, res.subspaces, opts.crit_tol)[0]
    assert np.float64(res.critical_point_residual).tobytes() == np.float64(residual).tobytes()
    assert res.tucker.core.data.tobytes() == coefficient_tensor(t, res.subspaces).data.tobytes()


def test_solver_runs_are_reproducible():
    rng = np.random.default_rng(91)
    data = rng.standard_normal((5, 5, 5))
    res1 = bsta_solve(DenseTensor3(data), BstaOptions(target_ranks=(2, 2, 2), init="random", seed=3))
    res2 = bsta_solve(DenseTensor3(data), BstaOptions(target_ranks=(2, 2, 2), init="random", seed=3))
    assert res1.objective_history == res2.objective_history
    assert np.array_equal(res1.subspaces.x.frame, res2.subspaces.x.frame)
    assert np.array_equal(res1.tucker.core.data, res2.tucker.core.data)
    assert res1.sweeps == res2.sweeps


def test_zero_tensor_solves_cleanly():
    t = DenseTensor3(np.zeros((3, 4, 2)))
    res = bsta_solve(t, BstaOptions(target_ranks=(1, 2, 1)))
    assert res.approx_error == 0.0
    assert res.sweeps == 1
    assert res.converged
    assert res.critical_point_residual == 0.0


def test_stop_reason_names_why_the_sweeps_ended():
    rng = np.random.default_rng(96)
    t = random_tensor(rng, (6, 6, 6))
    capped = bsta_solve(t, BstaOptions(target_ranks=(2, 2, 2), max_sweeps=1, rel_tol=1e-30))
    assert capped.stop_reason == "max_sweeps"
    assert capped.sweeps == 1 and not capped.converged

    exact = bsta_solve(tucker_tensor(rng, (7, 8, 6), (2, 3, 2)), BstaOptions(target_ranks=(2, 3, 2)))
    assert exact.stop_reason == "gain" and exact.converged


def test_gain_stop_can_still_fail_the_certificate():
    # The README quickstart, whose numbers these are: the gain floor ends the
    # sweeps before the frames pass the certificate at the default crit_tol,
    # and a lower floor sweeps on to a certified stop.
    t = DenseTensor3(np.random.default_rng(0).standard_normal((7, 8, 6)))
    res = bsta_solve(t, BstaOptions(target_ranks=(2, 3, 2)))
    assert (res.sweeps, res.stop_reason, res.converged) == (136, "gain", False)
    assert f"{res.critical_point_residual:.1e}" == "9.3e-06"
    tight = bsta_solve(t, BstaOptions(target_ranks=(2, 3, 2), rel_tol=1e-14))
    assert (tight.sweeps, tight.stop_reason, tight.converged) == (171, "gain", True)


@st.composite
def long_mode_case(draw):
    """A tensor with one mode longer than the product of the other two, in any position."""
    short = [draw(st.integers(1, 3)) for _ in range(2)]
    j = draw(st.integers(0, 2))
    dims = tuple(short[:j] + [draw(st.integers(short[0] * short[1] + 1, 40))] + short[j:])
    ranks = tuple(draw(st.integers(1, min(m, 10))) for m in dims)
    seed = draw(st.integers(0, 2**32 - 1))
    zero = draw(st.booleans())
    data = np.zeros(dims) if zero else np.random.default_rng(seed).standard_normal(dims)
    return DenseTensor3(data), ranks, draw(st.sampled_from(("hosvd", "random")))


def _long(dims, ranks, init="hosvd", zero=False, seed=3):
    data = np.zeros(dims) if zero else np.random.default_rng(seed).standard_normal(dims)
    return DenseTensor3(data), ranks, init


@settings(max_examples=60, deadline=None)
@given(long_mode_case())
@example(_long((30, 2, 3), (6, 2, 3)))  # ranks equal to the short dims
@example(_long((3, 40, 2), (3, 4, 2)))
@example(_long((2, 3, 25), (2, 3, 6), init="random"))
@example(_long((3, 40, 2), (2, 5, 2), init="random"))
@example(_long((2, 1, 1), (2, 1, 1)))  # rank above the product of the other dims
@example(_long((30, 2, 3), (5, 1, 1)))  # rank above the product of the other ranks
@example(_long((2, 3, 25), (2, 2, 3), zero=True))
# Near a tie: a start taken on t, not on its compression, drifts 1.05e-12 |t|^2.
@example(_long((29, 3, 3), (1, 2, 1), seed=25))
@example(_long((29, 3, 3), (1, 2, 1), init="random", seed=25))
# A 7 x 6 long-mode unfolding with s_6 = 0.0058 s_1: compressed by the Gram
# matrix alone, the start is 2e-13 off, and the sweeps grow that to 1.6e-12 |t|^2.
@example(_long((2, 7, 3), (1, 1, 1), init="random", seed=1))
def test_compressed_sweeps_match_the_sweeps_on_the_full_tensor(case):
    t, ranks, init = case
    res = bsta_solve(t, BstaOptions(target_ranks=ranks, init=init, seed=7, max_sweeps=20))
    # The solver takes either start on the tensor it sweeps: t, or with a long
    # mode j its compression.
    j = tapprox.bsta._long_mode(t.dims, ranks)
    work, lift = t, None
    if j is not None:
        work, lift = _compress(t, j, ranks[j])
    s = hosvd_init(work, ranks) if init == "hosvd" else random_triple(work.dims, ranks, seed=7)
    if lift is not None:
        s = SubspaceTriple(*s[:j], Subspace(lift(s[j].frame)), *s[j + 1 :])
    history = []
    for _ in range(res.sweeps):
        s, fs = sweep_triple(t, s)
        history.extend(fs)
    norm_sq = hs_norm(t) ** 2
    assert_allclose(res.objective_history, history, rtol=0, atol=1e-12 * norm_sq)
    got = (res.subspaces.x, res.subspaces.y, res.subspaces.z)
    for sub, ref, k in zip(got, (s.x, s.y, s.z), ranks):
        assert np.max(np.abs(sub.frame.T @ sub.frame - np.eye(k))) <= 1e-10
        # Every triple is optimal for the zero tensor, so only a nonzero
        # one pins the subspaces down.
        if norm_sq > 0:
            assert same_subspace(sub, ref, tol=1e-8)


def _spectral(dims, ranks, s, seed=0):
    """A tensor whose long-mode unfolding has singular values ``s``, with its ranks and mode.

    The unfolding is ``U diag(s) V^T`` with seeded random orthonormal ``U`` and ``V``.
    """
    j = tapprox.bsta._long_mode(dims, ranks)
    rng = np.random.default_rng(seed)
    n = len(s)
    u, v = random_orthonormal(rng, dims[j], n), random_orthonormal(rng, n, n)
    return fold((u * np.asarray(s, float)) @ v.T, j + 1, dims), ranks, j


@st.composite
def degenerate_long_mode_case(draw):
    """A long mode whose unfolding is rank-deficient, ill-conditioned or zero (:func:`_spectral`).

    The ranks meet ``_long_mode``'s rule.  A rank-deficient spectrum ends in
    zeros; an ill-conditioned one falls geometrically to ``1e-5`` or less of
    ``s_1``, and may end in zeros too.
    """
    short = [draw(st.integers(1, 3)) for _ in range(2)]
    j = draw(st.integers(0, 2))
    n = short[0] * short[1]
    dims = tuple(short[:j] + [draw(st.integers(n + 1, 40))] + short[j:])
    held = [draw(st.integers(1, d)) for d in short]
    ranks = tuple(held[:j] + [draw(st.integers(1, held[0] * held[1]))] + held[j:])
    kind = draw(st.sampled_from(("rank-deficient", "ill-conditioned", "zero")))
    r = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "rank-deficient":
        s = np.sort(np.random.default_rng(seed).uniform(0.1, 1.0, r))[::-1]
    elif kind == "ill-conditioned":
        s = np.logspace(0, -draw(st.floats(2.0, 5.0)), r)
    else:
        s = np.zeros(r)
    return _spectral(dims, ranks, np.r_[s, np.zeros(n - r)], seed)


def _error_against_the_full_sweeps(t, ranks, j, sweeps=8):
    """``bsta_solve``'s result, and the error of as many sweeps on ``t`` from its start."""
    res = bsta_solve(t, BstaOptions(target_ranks=ranks, max_sweeps=sweeps, rel_tol=1e-30))
    work, lift = _compress(t, j, ranks[j])
    s = hosvd_init(work, ranks)
    if lift is not None:
        s = SubspaceTriple(*s[:j], Subspace(lift(s[j].frame)), *s[j + 1 :])
    for _ in range(res.sweeps):
        s, _ = sweep_triple(t, s)
    return res, distance(t, s)


@settings(max_examples=80, deadline=None)
@given(degenerate_long_mode_case())
# Mode 1 of rank 2 at rank 3: too few kept eigenvalues, so no compression.
@example(_spectral((30, 3, 2), (3, 2, 2), [1.0, 0.5, 0, 0, 0, 0]))
# Rank 2 at rank 2: compressed to 2 rows.
@example(_spectral((30, 3, 2), (2, 2, 2), [1.0, 0.5, 0, 0, 0, 0]))
@example(_spectral((3, 40, 3), (3, 3, 3), np.r_[np.logspace(0, -5, 6), 0, 0, 0]))
@example(_spectral((2, 2, 25), (2, 2, 4), np.zeros(4)))
def test_compression_of_a_degenerate_long_mode_keeps_the_error(case):
    # The solver sweeps the compressed tensor, or t itself when its rank
    # exceeds the kept eigenvalues; the reference sweeps t from the same
    # start.  The compression holds t to rounding in the kept directions
    # (bsta._compress), so the errors agree well inside 1e-10.
    t, ranks, j = case
    res, want = _error_against_the_full_sweeps(t, ranks, j)
    assert abs(res.approx_error - want) <= 1e-10 * hs_norm(t)
    for sub, k in zip(res.subspaces, ranks):
        f = Subspace(sub.frame).frame
        assert np.max(np.abs(f.T @ f - np.eye(k))) <= 1e-12


def test_compression_error_is_bounded_by_the_smallest_kept_singular_value():
    # Mode 1 singular values 1, 1e-6 and 1e-12: the Gram cutoff (25 eps)
    # keeps two.  The sweeps on t leave out only s_3, an error of 1e-12.
    # The Gram matrix resolves s_2's direction only to about eps / 1e-6 =
    # 2.2e-10, so the compressed tensor fold(sqrt(lam) V^T) would miss
    # 9.7e-11 of t.  _compress orthonormalises A V / sqrt(lam) and projects
    # t onto it, so it misses only the part outside the kept range.
    t, ranks, j = _spectral((25, 1, 3), (2, 1, 2), [1.0, 1e-6, 1e-12], seed=4)
    assert tapprox.bsta._compress(t, j, ranks[j])[0].dims == (2, 1, 3)
    res, want = _error_against_the_full_sweeps(t, ranks, j)
    assert want <= 1.1e-12
    assert res.approx_error - want <= np.finfo(float).eps / 1e-6
    assert abs(res.approx_error - want) <= 1e-14


def test_compression_falls_back_when_the_rank_exceeds_the_kept_directions():
    for t, ranks, j in (
        _spectral((30, 3, 2), (3, 2, 2), [1.0, 0.5, 0, 0, 0, 0]),
        # Singular values 1, 0.1, ..., 1e-8: all but 1e-8 are above the cutoff.
        _spectral((3, 40, 3), (3, 9, 3), np.logspace(0, -8, 9)),
        _spectral((2, 2, 25), (2, 2, 4), np.zeros(4)),
    ):
        assert tapprox.bsta._compress(t, j, ranks[j]) == (t, None)
    t, ranks, j = _spectral((3, 40, 3), (3, 8, 3), np.logspace(0, -8, 9))
    work, back = tapprox.bsta._compress(t, j, ranks[j])
    assert work.dims == (3, 8, 3) and back.shape == (9, 8)


def test_sweeps_run_on_the_compressed_tensor(monkeypatch):
    seen = []
    sweep = tapprox.bsta._sweep

    def spy(data, frames):
        seen.append((data, list(frames)))
        return sweep(data, frames)

    monkeypatch.setattr(tapprox.bsta, "_sweep", spy)
    rng = np.random.default_rng(98)
    cases = (
        ((30, 3, 3), (3, 2, 2), "hosvd", [(9, 3, 3)] * 3),
        ((3, 40, 3), (2, 3, 2), "hosvd", [(3, 9, 3)] * 3),
        ((3, 3, 25), (2, 2, 3), "hosvd", [(3, 3, 9)] * 3),
        ((3, 3, 25), (2, 2, 3), "random", [(3, 3, 9)] * 3),
        # No qualifying mode: too short, or a rank above k_p * k_q.
        ((6, 6, 6), (2, 2, 2), "hosvd", [(6, 6, 6)] * 3),
        ((30, 3, 3), (5, 1, 2), "hosvd", [(30, 3, 3)] * 3),
    )
    for dims, ranks, init, expected in cases:
        seen.clear()
        opts = BstaOptions(target_ranks=ranks, init=init, max_sweeps=3, rel_tol=1e-30)
        res = bsta_solve(random_tensor(rng, dims), opts)
        assert [data.shape for data, _ in seen] == expected, (dims, ranks, init)
        assert res.subspaces.ambient_dims == dims
        # The first sweep starts from the chosen init on the tensor it sweeps.
        data, first = seen[0]
        if init == "hosvd":
            start = hosvd_init(DenseTensor3(data), ranks)
        else:
            start = random_triple(data.shape, ranks, opts.seed)
        for got, want in zip(first, start):
            assert np.array_equal(got, want.frame), (dims, ranks, init)


def test_solve_builds_subspaces_only_at_its_boundary(monkeypatch):
    # The sweeps run on raw frames: one Subspace per start frame and one per
    # final frame, none per sweep, also when a long mode is mapped back.
    built = []
    init = Subspace.__init__

    def spy(self, frame):
        built.append(np.shape(frame))
        init(self, frame)

    monkeypatch.setattr(tapprox.subspace.Subspace, "__init__", spy)
    rng = np.random.default_rng(100)
    for dims, ranks, start in (((6, 6, 6), (2, 2, 2), "hosvd"), ((30, 3, 3), (3, 2, 2), "random")):
        built.clear()
        opts = BstaOptions(target_ranks=ranks, init=start, max_sweeps=50, rel_tol=1e-30)
        res = bsta_solve(random_tensor(rng, dims), opts)
        assert res.sweeps > 2, dims
        assert len(built) <= 6, (dims, res.sweeps, len(built))


def test_solve_forms_coefficient_tensors_only_at_its_end(monkeypatch):
    # Each sweep measures its own gain from its first operator, so the start
    # needs no coefficient tensor.  The end forms one on t, the projection
    # behind approx_error.  The Tucker core is a small product of
    # t x_1 X^T at the final frames: the last sweep's on the cube, formed
    # once after sweeps on the compressed long mode 1.
    contract = tapprox.subspace.coefficient_tensor
    calls = []

    def spy(t, s):
        calls.append(t.dims)
        return contract(t, s)

    for module in (tapprox.bsta, tapprox.subspace):
        for name, value in list(vars(module).items()):
            if value is contract:
                monkeypatch.setattr(module, name, spy)
    rng = np.random.default_rng(101)
    for dims, ranks, start, allowed in (
        ((6, 6, 6), (2, 2, 2), "hosvd", {1}),
        ((30, 3, 3), (3, 2, 2), "random", {1}),
    ):
        calls.clear()
        opts = BstaOptions(target_ranks=ranks, init=start, max_sweeps=5, rel_tol=1e-30)
        res = bsta_solve(random_tensor(rng, dims), opts)
        assert res.sweeps == 5, dims
        assert len(calls) in allowed, (dims, calls)
        assert all(d == dims for d in calls), (dims, calls)


@pytest.mark.parametrize(
    "dims, ranks, bound",
    [
        ((6000, 8, 8), (4, 4, 4), 1.5),
        # Not compressed (k_j > k_p * k_q); the start visits the tall mode first.
        ((20, 1000, 20), (2, 5, 2), 1.3),
        ((1000, 20, 20), (5, 2, 2), 1.3),
        ((20, 20, 1000), (2, 2, 5), 1.3),
    ],
    ids=["long-mode-1", "tall-mode-2", "tall-mode-1", "tall-mode-3"],
)
def test_solve_memory_per_shape_class(dims, ranks, bound):
    # Neither the compression nor a tall start copies an unfolding or forms
    # an m_j-row factor of it (a thin SVD of the 6000 x 64 unfolding would
    # add 1x, and Q Q^T or its full SVD 288 MB); the peak is distance()'s
    # projection, 1x the tensor, plus what is small beside it.  A tall start
    # alone holds its short-side Gram matrix and that matrix's eigenvectors
    # (0.4x each here).
    t = random_tensor(np.random.default_rng(105), dims)
    runs = [(lambda: bsta_solve(t, BstaOptions(target_ranks=ranks, max_sweeps=3)), bound)]
    if tapprox.bsta._long_mode(dims, ranks) is None:
        runs.append((lambda: hosvd_init(t, ranks), 1.0))
    for run, most in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= most * t.data.nbytes, (dims, most, peak / t.data.nbytes)


def test_residual_holds_one_projection_beyond_the_input():
    # The projection is one array the size of t; a copy of it, or the
    # full-size difference t - P, lifts the peak to about 2x.  bsta_solve's
    # start copies no unfolding of this cubic t.
    rng = np.random.default_rng(7)
    frames = [random_orthonormal(rng, 100, 10) for _ in range(3)]
    core = rng.standard_normal((10, 10, 10))
    t = DenseTensor3(np.einsum("abc,ia,jb,kc->ijk", core, *frames, optimize=True))
    s = random_subspace_triple(rng, t.dims, (10, 10, 10))
    opts = BstaOptions(target_ranks=(10, 10, 10))
    for run in (lambda: bsta_solve(t, opts), lambda: distance(t, s)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * t.data.nbytes


def test_solver_validates_ranks_against_dims():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        bsta_solve(t, BstaOptions(target_ranks=(4, 1, 1)))


def test_options_validation():
    with pytest.raises(ValueError):
        BstaOptions(target_ranks=(0, 1, 1))
    with pytest.raises(ValueError):
        BstaOptions(target_ranks=(1, 1, 1), max_sweeps=0)
    with pytest.raises(ValueError):
        BstaOptions(target_ranks=(1, 1, 1), rel_tol=0.0)
    with pytest.raises(ValueError):
        BstaOptions(target_ranks=(1, 1, 1), init="qr")
    with pytest.raises(ValueError):
        BstaOptions(target_ranks=(1, 1, 1), crit_tol=-1.0)


# ---------------------------------------------------------------------------
# critical-point certificate

def test_full_frames_are_always_critical():
    rng = np.random.default_rng(92)
    t = random_tensor(rng, (4, 3, 5))
    s = random_subspace_triple(rng, (4, 3, 5), (4, 3, 5))
    resid, ok = verify_critical_point(t, s, 1e-10)
    assert ok and resid <= 1e-12


def test_converged_solution_passes_certificate():
    rng = np.random.default_rng(93)
    t = random_tensor(rng, (6, 6, 6))
    res = bsta_solve(
        t,
        BstaOptions(target_ranks=(2, 2, 2), rel_tol=1e-14, max_sweeps=2000),
    )
    resid, ok = verify_critical_point(t, res.subspaces, 1e-6)
    assert ok, f"residual {resid}"


def test_random_triples_fail_certificate():
    rng = np.random.default_rng(94)
    t = random_tensor(rng, (6, 6, 6))
    for seed in range(5):
        s = random_triple((6, 6, 6), (2, 2, 2), seed=seed)
        resid, ok = verify_critical_point(t, s, 1e-6)
        assert not ok and resid > 1e-3


def _certificate_with_the_full_gram(t, s):
    """The certificate as first written, forming G = M M^T (m x m) per mode."""
    subs = (s.x, s.y, s.z)
    worst = 0.0
    for j in range(3):
        m = projected_operator(t, j + 1, *(subs[k] for k in range(3) if k != j))
        g = m @ m.T
        f = subs[j].frame
        gf = g @ f
        resid = gf - f @ (f.T @ gf)
        tiny = np.finfo(np.float64).tiny
        worst = max(worst, float(np.linalg.norm(resid) / max(np.linalg.norm(g), tiny)))
    return worst


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks(), st.integers(0, 2**32 - 1))
@example(_case((40, 2, 3), (3, 1, 2)), 1)
@example(_case((30, 5, 1), (4, 2, 1)), 2)
@example(_case((1, 4, 4), (1, 2, 3)), 3)
@example(_case((3, 4, 2), (3, 4, 2)), 4)
def test_certificate_matches_the_full_gram_formula(case, seed):
    # The first two examples have tall projected operators (40 x 2 and
    # 30 x 2).  The absolute tolerance covers modes whose frame fills its
    # space, where both residuals are roundoff.
    t, ranks = case
    s = random_triple(t.dims, ranks, seed=seed)
    resid, _ = verify_critical_point(t, s)
    assert_allclose(resid, _certificate_with_the_full_gram(t, s), rtol=1e-10, atol=1e-13)


def _certificate_from_projected_operators(t, s):
    """The certificate's arithmetic with every operator built by projected_operator."""
    rels = []
    for j in range(3):
        m = projected_operator(t, j + 1, *(s[k] for k in range(3) if k != j))
        m = np.ldexp(m, -np.frexp(np.max(np.abs(m)))[1])
        f = s[j].frame
        gf = m @ (m.T @ f)
        resid = gf - f @ (f.T @ gf)
        small_gram = m.T @ m if m.shape[0] > m.shape[1] else m @ m.T
        tiny = np.finfo(np.float64).tiny
        rels.append(np.linalg.norm(resid) / max(np.linalg.norm(small_gram), tiny))
    return float(np.max(rels))


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks(), st.integers(0, 2**32 - 1))
@example(_case((40, 2, 3), (3, 1, 2)), 1)
@example(_case((30, 5, 1), (4, 2, 1)), 2)
@example(_case((1, 4, 4), (1, 2, 3)), 3)
@example(_case((3, 4, 2), (3, 4, 2)), 4)
@example((DenseTensor3(np.zeros((3, 4, 2))), (2, 2, 1)), 5)
@example(_case((4, 40, 3), (2, 5, 3)), 6)  # a long mode 2
def test_certificate_has_the_bits_of_projected_operator(case, seed):
    # The mode-2 and mode-3 operators share t x_1 X^T, yet each is the
    # product projected_operator makes, in its order: the residual is the
    # same float.
    t, ranks = case
    s = random_triple(t.dims, ranks, seed=seed)
    resid = verify_critical_point(t, s)[0]
    reference = _certificate_from_projected_operators(t, s)
    assert np.float64(resid).tobytes() == np.float64(reference).tobytes()


def test_the_certificate_reads_the_full_tensor_twice(monkeypatch):
    # The mode-1 operator's t x_2 Y^T, and t x_1 X^T, shared by the mode-2
    # and mode-3 operators.
    t = random_tensor(np.random.default_rng(108), (9, 8, 7))
    s = random_triple(t.dims, (3, 2, 4), seed=1)
    _, full = full_size_products(monkeypatch, t, lambda: verify_critical_point(t, s))
    assert full == [1, 0]


def test_certificate_memory_is_linear_in_a_tall_dimension():
    # G = M M^T of the 3000 x 4 mode-1 operator would take 72 MB.
    rng = np.random.default_rng(95)
    t = random_tensor(rng, (3000, 4, 4))
    s = random_triple(t.dims, (2, 2, 2), seed=0)
    tracemalloc.start()
    try:
        verify_critical_point(t, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_certificate_of_zero_tensor_is_zero():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    s = random_triple((3, 3, 3), (1, 2, 1), seed=1)
    resid, ok = verify_critical_point(t, s, 1e-6)
    assert ok and resid == 0.0


@pytest.mark.parametrize("scale", [1e-140, 1e-90, 1e-80, 1e80, 1e90, 1e150])
def test_certificate_is_scale_invariant(scale):
    # At unit scale this run stops on the gain floor with a residual of
    # 6.4e-6, above crit_tol, so a certificate whose norms underflow or
    # overflow shows as a residual of 0 and converged=True.
    base = np.random.default_rng(0).standard_normal((6, 5, 4))
    opts = BstaOptions(target_ranks=(2, 2, 2))
    unit = bsta_solve(DenseTensor3(base), opts)
    scaled = bsta_solve(DenseTensor3(scale * base), opts)
    assert not unit.converged and unit.critical_point_residual > opts.crit_tol
    assert (scaled.sweeps, scaled.stop_reason, scaled.converged) == (
        unit.sweeps, unit.stop_reason, unit.converged
    )
    assert_allclose(scaled.critical_point_residual, unit.critical_point_residual, rtol=1e-9)


def test_certificate_fails_on_an_overflowing_operator():
    # Each projected operator entry sums to about 2e308, which overflows.
    t = DenseTensor3(np.full((4, 4, 4), 1e308))
    frame = Subspace(np.full((4, 1), 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        resid, ok = verify_critical_point(t, SubspaceTriple(frame, frame, frame))
    assert np.isnan(resid) and not ok


# ---------------------------------------------------------------------------
# the shared Tucker result

@settings(max_examples=40, deadline=None)
@given(tensor_and_ranks())
@example((DenseTensor3(np.random.default_rng(1).standard_normal((1, 4, 4))), (1, 2, 3)))
@example((DenseTensor3(np.random.default_rng(2).standard_normal((3, 4, 2))), (3, 4, 2)))
@example((DenseTensor3(np.zeros((1, 3, 3))), (1, 3, 3)))
def test_tucker_result_is_the_projection(case):
    t, ranks = case
    res = bsta_solve(t, BstaOptions(target_ranks=ranks))
    tucker = res.tucker
    # project is the reconstruct of the same Tucker form, so the two agree exactly.
    assert np.array_equal(tucker.reconstruct().data, project(t, res.subspaces).data)
    assert tucker.dims == t.dims
    expected = tucker.core.size + sum(m * k for m, k in zip(t.dims, ranks))
    assert tucker.storage_count() == expected


@settings(max_examples=40, deadline=None)
@given(tensor_and_ranks(), st.sampled_from(["hosvd", "random"]))
def test_reported_error_is_the_distance(case, init):
    t, ranks = case
    res = bsta_solve(t, BstaOptions(target_ranks=ranks, init=init, seed=3))
    # One residual formula: the solver reports distance() to the bit.
    assert res.approx_error == distance(t, res.subspaces)


def test_tucker_factors_are_views_of_the_frames():
    rng = np.random.default_rng(97)
    t = random_tensor(rng, (5, 4, 3))
    res = bsta_solve(t, BstaOptions(target_ranks=(2, 2, 2)))
    s = res.subspaces
    for factor, sub in zip(res.tucker.factors, (s.x, s.y, s.z)):
        assert np.shares_memory(factor, sub.frame)
        assert np.array_equal(factor, sub.frame.T)
