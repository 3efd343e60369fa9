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
    hosvd_init,
    hs_norm,
    project,
    projected_operator,
    random_triple,
    relaxation_sweep,
    unfold,
    verify_critical_point,
)

from helpers import (
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


def test_projected_operator_checks_ambient_dims():
    t = DenseTensor3(np.zeros((3, 4, 5)))
    a = Subspace(np.eye(4)[:, :1])
    with pytest.raises(ValueError):
        projected_operator(t, 1, a, a)


# ---------------------------------------------------------------------------
# initialization

def test_hosvd_init_recovers_an_exact_product():
    # The direct residual, not distance(): distance() goes through
    # Pythagoras, which bottoms out near sqrt(machine eps).  The (12, 2, 3)
    # tensor has a tall mode-1 unfolding (12 x 6), the other unfoldings
    # are wide, so both ways of finding a frame are covered.
    for seed in range(82, 92):
        rng = np.random.default_rng(seed)
        for dims, ranks in (((6, 5, 4), (2, 2, 3)), ((12, 2, 3), (3, 2, 3))):
            t = tucker_tensor(rng, dims, ranks)
            s = hosvd_init(t, ranks)
            gap = np.linalg.norm(t.data - project(t, s).data)
            assert gap <= 1e-10 * hs_norm(t), (seed, dims)


@settings(max_examples=60, deadline=None)
@given(tensor_and_ranks())
@example(_case((1, 4, 4), (1, 2, 4)))
@example(_case((3, 4, 2), (3, 4, 2)))
@example(_case((12, 2, 3), (5, 2, 3)))
@example(_case((7, 2, 3), (7, 1, 2)))
@example((DenseTensor3(np.zeros((4, 1, 3))), (2, 1, 3)))
def test_hosvd_frames_are_orthonormal_and_capture_the_top_energy(case):
    # Energy, not subspaces, is compared, so the check also holds when
    # singular values tie and the dominant subspace is not unique.
    t, ranks = case
    s = hosvd_init(t, ranks)
    norm_sq = hs_norm(t) ** 2
    for mode, sub, k in zip((1, 2, 3), (s.x, s.y, s.z), ranks):
        f = sub.frame
        assert f.shape == (t.dims[mode - 1], k)
        assert np.max(np.abs(f.T @ f - np.eye(k))) <= 1e-12
        u = unfold(t, mode)
        top = float(np.sum(np.linalg.svd(u, compute_uv=False)[:k] ** 2))
        captured = float(np.linalg.norm(f.T @ u) ** 2)
        assert abs(captured - top) <= 1e-12 * norm_sq


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


# ---------------------------------------------------------------------------
# relaxation_sweep

def test_sweep_objectives_never_decrease():
    rng = np.random.default_rng(83)
    t = random_tensor(rng, (5, 5, 5))
    s = random_subspace_triple(rng, (5, 5, 5), (2, 3, 2))
    prev = hs_norm(coefficient_tensor(t, s)) ** 2
    for _ in range(6):
        s, fs = relaxation_sweep(t, s)
        for f in fs:
            assert f >= prev - 1e-10
            prev = f


def test_sweep_keeps_an_adversarial_fixed_point():
    # The dominant one-dimensional triple is span(e1)^3, but span(e2)^3
    # is a critical point with objective 1; a sweep must not leave it.
    t = spike_tensor()
    s0 = e2_triple()
    s1, fs = relaxation_sweep(t, s0)
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
    s1, fs = relaxation_sweep(t, s)
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
        a, fa = relaxation_sweep(t, a)
        b, fb = relaxation_sweep(t, b)
        assert_allclose(fa, fb, rtol=1e-9)


def test_sweep_checks_dimensions():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    s = random_triple((4, 3, 3), (1, 1, 1), seed=0)
    with pytest.raises(ValueError):
        relaxation_sweep(t, s)


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


def test_exact_low_rank_tensor_is_recovered():
    rng = np.random.default_rng(87)
    t = tucker_tensor(rng, (7, 8, 6), (2, 3, 2))
    res = bsta_solve(t, BstaOptions(target_ranks=(2, 3, 2)))
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
    # The README quickstart: the gain floor ends the sweeps before the
    # frames pass the certificate at the default crit_tol.
    t = DenseTensor3(np.random.default_rng(0).standard_normal((7, 8, 6)))
    res = bsta_solve(t, BstaOptions(target_ranks=(2, 3, 2)))
    assert res.stop_reason == "gain"
    assert res.sweeps < 200
    assert res.critical_point_residual > 1e-6
    assert not res.converged


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


def _long(dims, ranks, init="hosvd", zero=False):
    data = np.zeros(dims) if zero else np.random.default_rng(3).standard_normal(dims)
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
def test_compressed_sweeps_match_the_sweeps_on_the_full_tensor(case):
    t, ranks, init = case
    res = bsta_solve(t, BstaOptions(target_ranks=ranks, init=init, seed=7, max_sweeps=20))
    s = hosvd_init(t, ranks) if init == "hosvd" else random_triple(t.dims, ranks, seed=7)
    history = []
    for _ in range(res.sweeps):
        s, fs = relaxation_sweep(t, s)
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


def test_sweeps_run_on_the_compressed_tensor(monkeypatch):
    seen = []
    sweep = tapprox.bsta.relaxation_sweep

    def spy(t, s):
        seen.append(t.dims)
        return sweep(t, s)

    monkeypatch.setattr(tapprox.bsta, "relaxation_sweep", spy)
    rng = np.random.default_rng(98)
    cases = (
        ((30, 3, 3), (3, 2, 2), "hosvd", [(9, 3, 3)] * 3),
        ((3, 40, 3), (2, 3, 2), "hosvd", [(3, 9, 3)] * 3),
        ((3, 3, 25), (2, 2, 3), "hosvd", [(3, 3, 9)] * 3),
        # A random start's first sweep runs on the full tensor.
        ((3, 3, 25), (2, 2, 3), "random", [(3, 3, 25)] + [(3, 3, 9)] * 2),
        # No qualifying mode: too short, or a rank above k_p * k_q.
        ((6, 6, 6), (2, 2, 2), "hosvd", [(6, 6, 6)] * 3),
        ((30, 3, 3), (5, 1, 2), "hosvd", [(30, 3, 3)] * 3),
    )
    for dims, ranks, init, expected in cases:
        seen.clear()
        opts = BstaOptions(target_ranks=ranks, init=init, max_sweeps=3, rel_tol=1e-30)
        res = bsta_solve(random_tensor(rng, dims), opts)
        assert seen == expected, (dims, ranks, init)
        assert res.subspaces.ambient_dims == dims


def test_long_mode_solve_builds_no_square_array():
    # Q Q^T, or a full SVD of the 6000 x 64 mode-1 unfolding, would take
    # 288 MB; the tensor itself takes 3 MB.
    rng = np.random.default_rng(99)
    t = random_tensor(rng, (6000, 8, 8))
    tracemalloc.start()
    try:
        bsta_solve(t, BstaOptions(target_ranks=(4, 4, 4), max_sweeps=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    gap = np.linalg.norm(tucker.reconstruct().data - project(t, res.subspaces).data)
    assert gap <= 1e-12 * hs_norm(t)
    assert tucker.dims == t.dims
    expected = tucker.core.size + sum(m * k for m, k in zip(t.dims, ranks))
    assert tucker.storage_count() == expected


def test_tucker_factors_are_views_of_the_frames():
    rng = np.random.default_rng(97)
    t = random_tensor(rng, (5, 4, 3))
    res = bsta_solve(t, BstaOptions(target_ranks=(2, 2, 2)))
    s = res.subspaces
    for factor, sub in zip(res.tucker.factors, (s.x, s.y, s.z)):
        assert np.shares_memory(factor, sub.frame)
        assert np.array_equal(factor, sub.frame.T)
