import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tapprox import (
    DenseTensor3,
    FlrtaOptions,
    IndexSelection,
    TuckerFactorization,
    coefficient_tensor,
    fit_core_cross,
    fit_core_full,
    flrta_approx,
    flrta_solve,
    hs_norm,
    pinv,
    sections,
    select_indices,
    slice_cross,
)
from tapprox.cli import DEFAULT_SEED, build_parser, main, read_tensor_file
from tapprox.flrta import RankDeficientDesignWarning, TrialConditions
from tapprox.subspace import SubspaceTriple, Subspace
from tapprox.tensor_core import numerical_rank

from helpers import random_orthonormal, random_tensor, tucker_tensor
from test_cli import _BAD_OPTIONS


# ---------------------------------------------------------------------------
# IndexSelection

def test_selection_normalizes_order():
    sel = IndexSelection((4, 4, 4), (3, 0), (2, 1), (1, 0))
    assert sel.i_set == (0, 3)
    assert sel.j_set == (1, 2)
    assert sel.k_set == (0, 1)
    assert sel.sizes == (2, 2, 2)


def test_selection_validation():
    with pytest.raises(ValueError):
        IndexSelection((3, 3, 3), (0, 0), (1,), (1,))  # duplicate
    with pytest.raises(ValueError):
        IndexSelection((3, 3, 3), (3,), (1,), (1,))  # out of range
    with pytest.raises(ValueError):
        IndexSelection((3, 3, 3), (), (1,), (1,))  # empty
    with pytest.raises(ValueError):
        IndexSelection((3, 3, 3), (-1,), (1,), (1,))  # negative


# ---------------------------------------------------------------------------
# sections

def test_sections_with_full_sets_reproduce_the_tensor():
    rng = np.random.default_rng(101)
    t = random_tensor(rng, (3, 4, 2))
    sel = IndexSelection(t.dims, range(3), range(4), range(2))
    c1, c2, c3 = sections(t, sel)
    assert np.array_equal(c1.data, t.data)
    assert np.array_equal(c2.data, t.data)
    assert np.array_equal(c3.data, t.data)


def test_single_index_sections_are_fibers():
    rng = np.random.default_rng(102)
    t = random_tensor(rng, (3, 3, 3))
    sel = IndexSelection(t.dims, (0,), (1,), (2,))
    c1, c2, c3 = sections(t, sel)
    assert c1.dims == (3, 1, 1)
    assert np.array_equal(c1.data[:, 0, 0], t.data[:, 1, 2])
    assert np.array_equal(c2.data[0, :, 0], t.data[0, :, 2])
    assert np.array_equal(c3.data[0, 0, :], t.data[0, 1, :])


def test_section_entries_by_enumeration():
    rng = np.random.default_rng(103)
    t = random_tensor(rng, (4, 5, 6))
    sel = IndexSelection(t.dims, (1, 3), (0, 2, 4), (5, 1))
    c2 = sections(t, sel)[1]
    for a, i in enumerate(sel.i_set):
        for j in range(5):
            for c, k in enumerate(sel.k_set):
                assert c2.data[a, j, c] == t.data[i, j, k]


def test_sections_require_matching_dims():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    sel = IndexSelection((3, 3, 4), (0,), (0,), (0,))
    with pytest.raises(ValueError):
        sections(t, sel)


# ---------------------------------------------------------------------------
# pinv

def test_pinv_of_identity_and_diagonal():
    assert_allclose(pinv(np.eye(3)), np.eye(3), rtol=0, atol=1e-15)
    assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), rtol=1e-15)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(104)
    a = rng.standard_normal((4, 3))
    # make one rank-deficient case as well
    low = np.outer(rng.standard_normal(4), rng.standard_normal(3))
    for m in (a, low):
        g = pinv(m)
        assert_allclose(m @ g @ m, m, rtol=0, atol=1e-12)
        assert_allclose(g @ m @ g, g, rtol=0, atol=1e-12)
        assert_allclose((m @ g).T, m @ g, rtol=0, atol=1e-12)
        assert_allclose((g @ m).T, g @ m, rtol=0, atol=1e-12)


def test_pinv_tolerance_cuts_small_singular_values():
    m = np.diag([1.0, 1e-9])
    sharp = pinv(m)
    assert_allclose(sharp, np.diag([1.0, 1e9]), rtol=1e-9)
    blunt = pinv(m, tol=1e-6)
    assert_allclose(blunt, np.diag([1.0, 0.0]), rtol=1e-12)


# ---------------------------------------------------------------------------
# slice_cross

@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan")])
def test_pinv_rejects_negative_or_nan_tolerance(tol):
    with pytest.raises(ValueError, match="rank tolerance"):
        pinv(np.eye(3), tol=tol)
    t = DenseTensor3(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="rank tolerance"):
        flrta_approx(t, IndexSelection(t.dims, (0,), (0,), (0,)), pinv_tol=tol)
    # The same cutoff counts ranks: -1 would count the zero singular value.
    for m in (np.diag([1.0, 0.0]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="rank tolerance"):
            numerical_rank(m, tol)


def test_slice_cross_is_exact_on_matching_rank():
    rng = np.random.default_rng(105)
    # a rank-2 slice embedded as the only slice of a (6, 7, 1) tensor
    f = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 7))
    t = DenseTensor3(f[:, :, None])
    sel = IndexSelection(t.dims, (0, 3), (1, 4), (0,))
    g = slice_cross(t, sel, 0)
    assert_allclose(g, f, rtol=0, atol=1e-10 * np.linalg.norm(f))


def test_slice_cross_requires_selected_slice():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    sel = IndexSelection(t.dims, (0,), (0,), (1,))
    with pytest.raises(ValueError, match=r"^slice index 0 is not in k_set \(1,\)$"):
        slice_cross(t, sel, 0)
    # A float index is refused as an int, not used to index NumPy.
    with pytest.raises(ValueError, match=r"^slice index: 1\.0 is not an int$"):
        slice_cross(t, sel, 1.0)
    assert np.array_equal(slice_cross(t, sel, np.int64(1)), np.zeros((3, 3)))


def test_slice_cross_of_zero_slice_is_zero():
    t = DenseTensor3(np.zeros((3, 4, 2)))
    sel = IndexSelection(t.dims, (0, 1), (1, 2), (0,))
    assert np.array_equal(slice_cross(t, sel, 0), np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# flrta_approx

def test_factor_shapes_and_reconstruction_dims():
    rng = np.random.default_rng(106)
    t = random_tensor(rng, (5, 6, 7))
    sel = IndexSelection(t.dims, (0, 2), (1, 3, 5), (2, 6))
    fac = flrta_approx(t, sel)
    p, q, r = 2, 3, 2
    assert fac.core.dims == (q * r, p * r, p * q)
    assert fac.factors[0].shape == (q * r, 5)
    assert fac.factors[1].shape == (p * r, 6)
    assert fac.factors[2].shape == (p * q, 7)
    assert fac.dims == t.dims
    assert fac.reconstruct().dims == t.dims
    assert fac.storage_count() == fac.core.size + sum(f.size for f in fac.factors)


def test_reconstruct_holds_one_intermediate_beside_its_output():
    # At sections (10, 10, 10) of a 100^3 tensor the core and all three
    # factors are 100 x 100 x 100 and 100 x 100, so the last mode product's
    # input and its output are each the output's size.  One more array of
    # that size, as np.einsum held, lifts the peak to 3x.
    rng = np.random.default_rng(109)
    t = random_tensor(rng, (100, 100, 100))
    fac = flrta_approx(t, IndexSelection(t.dims, range(10), range(10), range(10)))
    tracemalloc.start()
    try:
        out = fac.reconstruct()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * out.data.nbytes


def test_factors_contain_only_tensor_entries():
    rng = np.random.default_rng(107)
    t = random_tensor(rng, (4, 5, 3))
    sel = IndexSelection(t.dims, (1, 3), (0, 4), (0, 2))
    fac = flrta_approx(t, sel)
    c1, c2, c3 = fac.factors
    for a, j in enumerate(sel.j_set):
        for b, k in enumerate(sel.k_set):
            assert np.array_equal(c1[a * 2 + b], t.data[:, j, k])
    for a, i in enumerate(sel.i_set):
        for b, k in enumerate(sel.k_set):
            assert np.array_equal(c2[a * 2 + b], t.data[i, :, k])
    for a, i in enumerate(sel.i_set):
        for b, j in enumerate(sel.j_set):
            assert np.array_equal(c3[a * 2 + b], t.data[i, j, :])


def test_exact_tucker_tensor_is_reconstructed():
    rng = np.random.default_rng(108)
    t = tucker_tensor(rng, (7, 8, 6), (2, 3, 2))
    sel = select_indices(t, (2, 3, 2), trials=20, seed=1)
    fac = flrta_approx(t, sel)
    err = np.linalg.norm(t.data - fac.reconstruct().data)
    assert err <= 1e-7 * hs_norm(t)


def test_rank_one_tensor_is_exact_from_single_indices():
    u, v, w = np.array([1.0, 2.0]), np.array([3.0, 1.0, 1.0]), np.array([1.0, -1.0])
    t = DenseTensor3(np.einsum("i,j,k->ijk", u, v, w))
    sel = IndexSelection(t.dims, (1,), (0,), (0,))
    fac = flrta_approx(t, sel)
    assert_allclose(fac.reconstruct().data, t.data, rtol=0, atol=1e-12)


def test_reconstruction_interpolates_the_sections():
    # On the selected fibers the approximation reproduces the tensor
    # whenever the cross blocks are well conditioned.
    rng = np.random.default_rng(109)
    t = tucker_tensor(rng, (6, 6, 6), (2, 2, 2))
    sel = select_indices(t, (2, 2, 2), trials=20, seed=2)
    b = flrta_approx(t, sel).reconstruct()
    scale = hs_norm(t)
    for i in sel.i_set:
        for j in sel.j_set:
            assert_allclose(b.data[i, j, :], t.data[i, j, :], atol=1e-8 * scale, rtol=0)
    for i in sel.i_set:
        for k in sel.k_set:
            assert_allclose(b.data[i, :, k], t.data[i, :, k], atol=1e-8 * scale, rtol=0)
    for j in sel.j_set:
        for k in sel.k_set:
            assert_allclose(b.data[:, j, k], t.data[:, j, k], atol=1e-8 * scale, rtol=0)


def test_tucker_factorization_validates_factors():
    core = DenseTensor3(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        TuckerFactorization(core, (np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((2, 4))))
    with pytest.raises(ValueError, match="expected three factors, got 2"):
        TuckerFactorization(core, (np.zeros((2, 4)), np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# select_indices

def test_select_indices_is_deterministic():
    rng = np.random.default_rng(110)
    t = random_tensor(rng, (6, 5, 4))
    a = select_indices(t, (2, 2, 2), trials=15, seed=7)
    b = select_indices(t, (2, 2, 2), trials=15, seed=7)
    assert (a.i_set, a.j_set, a.k_set) == (b.i_set, b.j_set, b.k_set)
    assert a.cond_report == b.cond_report
    assert len(a.cond_report) == 15
    assert a.chosen_conditions is not None
    assert np.isfinite(a.chosen_conditions.worst)


def test_select_indices_on_a_diagonal_tensor_aligns():
    # Only aligned (i, i, i) singletons give nonsingular crosses.
    data = np.zeros((4, 4, 4))
    for i in range(4):
        data[i, i, i] = float(i + 1)
    t = DenseTensor3(data)
    sel = select_indices(t, (1, 1, 1), trials=64, seed=0)
    assert sel.i_set == sel.j_set == sel.k_set
    # misaligned trials must all be scored as singular
    for rec in sel.cond_report:
        aligned = rec.i_set == rec.j_set == rec.k_set
        assert np.isfinite(rec.worst) == aligned


def test_select_indices_zero_tensor_warns_with_best_effort():
    t = DenseTensor3(np.zeros((4, 4, 4)))
    with pytest.warns(RuntimeWarning, match="all 5 sampling trials produced singular") as record:
        sel = select_indices(t, (2, 2, 2), trials=5, seed=0)
    assert len(record) == 1
    assert isinstance(sel, IndexSelection)
    assert len(sel.cond_report) == 5
    assert all(not np.isfinite(rec.worst) for rec in sel.cond_report)
    # the best-effort selection is still usable
    fac = flrta_approx(t, sel)
    assert np.array_equal(fac.reconstruct().data, t.data)


@pytest.mark.parametrize(
    "t",
    [
        DenseTensor3(np.zeros((4, 4, 4))),
        tucker_tensor(np.random.default_rng(3), (12, 12, 12), (2, 2, 2)),
    ],
    ids=["zero-4", "rank2-12"],
)
def test_all_singular_search_warns_and_stays_exact(t):
    # Sections larger than the rank make every cross block singular, yet
    # the pseudo-skeleton still captures the rank and rebuilds the tensor.
    with pytest.warns(RuntimeWarning, match="all 20 sampling trials produced singular") as record:
        sel = select_indices(t, (4, 4, 4), trials=20, seed=12345)
    assert len(record) == 1
    assert sel.sizes == (4, 4, 4)
    assert np.isinf(sel.chosen_conditions.worst)
    rec = flrta_approx(t, sel).reconstruct()
    assert np.linalg.norm(rec.data - t.data) <= 1e-12 * hs_norm(t)


def test_a_selection_warning_names_the_line_that_called_the_library():
    t = DenseTensor3(np.zeros((4, 4, 4)))
    opts = FlrtaOptions((2, 2, 2), trials=5)
    with pytest.warns(RuntimeWarning, match="singular") as direct:
        select_indices(t, (2, 2, 2), trials=5)
    with pytest.warns(RuntimeWarning, match="singular") as solved:
        flrta_solve(t, opts)
    for record in (direct, solved):
        assert len(record) == 1 and record[0].filename == __file__
    # The default filter shows a warning once per location, so solves from
    # two lines of a script show it twice.
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        flrta_solve(t, opts)
        flrta_solve(t, opts)
    assert [w.filename for w in shown] == [__file__] * 2
    assert shown[0].lineno + 1 == shown[1].lineno


def test_select_indices_warns_on_bad_conditioning():
    data = np.zeros((2, 2, 2))
    data[:, :, 0] = np.diag([1.0, 1e-10])
    data[:, :, 1] = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = DenseTensor3(data)
    with pytest.warns(RuntimeWarning, match="poorly conditioned"):
        sel = select_indices(t, (2, 2, 2), trials=3, seed=0)
    assert sel.chosen_conditions.worst > 1e8


def test_select_indices_validation():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        select_indices(t, (0, 1, 1))
    with pytest.raises(ValueError):
        select_indices(t, (1, 1, 4))
    with pytest.raises(ValueError):
        select_indices(t, (1, 1, 1), trials=0)


# ---------------------------------------------------------------------------
# one rank cutoff for numerical_rank, pinv and the trial conditions

_EPS = float(np.finfo(np.float64).eps)


@st.composite
def _selection_cases(draw):
    """A tensor and section sizes: low rank, near the cutoff, full rank, zero slices or zero.

    Shapes include 1 x n x n, and sizes include the dims themselves.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        dims = (1, n, n)
    else:
        dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["low_rank", "near_cutoff", "full_rank", "zero_slices", "zero"]))
    if kind in ("low_rank", "near_cutoff"):
        t = tucker_tensor(rng, dims, tuple(draw(st.integers(1, m)) for m in dims))
        if kind == "near_cutoff":
            # Smallest singular values of the cross blocks near max(rows, cols) * eps.
            noise = draw(st.sampled_from([0.3, 3.0, 30.0])) * _EPS * rng.standard_normal(dims)
            t = DenseTensor3(t.data + noise)
    else:
        data = rng.standard_normal(dims)
        if kind == "zero_slices":
            data[:, :, rng.random(dims[2]) < 0.5] = 0.0
        elif kind == "zero":
            data[:] = 0.0
        t = DenseTensor3(data)
    if draw(st.booleans()):
        sizes = dims
    else:
        sizes = tuple(draw(st.integers(1, m)) for m in dims)
    return t, sizes


@settings(max_examples=80, deadline=None)
@given(_selection_cases(), st.integers(0, 2**16))
def test_trial_conditions_are_finite_exactly_at_full_numerical_rank(case, seed):
    t, sizes = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = select_indices(t, sizes, trials=4, seed=seed).cond_report
    for rec in report:
        fibers = t.data[np.ix_(rec.i_set, rec.j_set)]  # (p, q, m3)
        outer = fibers.reshape(-1, t.dims[2])[:, rec.k_set]
        blocks = [outer] + [fibers[:, :, k] for k in rec.k_set]
        for block, cond in zip(blocks, (rec.cond_outer, *rec.cond_slices)):
            assert np.isfinite(cond) == (numerical_rank(block) == min(block.shape))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0, 1e3]), max_size=5),
    st.sampled_from([None, 1e-9, 1e-3]),
    st.floats(1e-3, 1e3),
    st.booleans(),
)
def test_pinv_keeps_exactly_the_numerical_rank(factors, tol, scale, zero):
    # Singular values on both sides of the cutoff tol * sigma_max.
    n = len(factors) + 1
    cut = n * _EPS if tol is None else tol
    s = scale * np.array([1.0] + [f * cut for f in factors])
    d = np.diag(0.0 * s if zero else s)
    kept = round(float(np.trace(pinv(d, tol) @ d)))
    assert kept == numerical_rank(d, tol)


# ---------------------------------------------------------------------------
# the FLRTA core's block layout

@settings(max_examples=80, deadline=None)
@given(_selection_cases(), st.integers(0, 2**16))
def test_flrta_core_holds_the_pinv_blocks_times_the_interpolation_rows(case, seed):
    t, sizes = case
    rng = np.random.default_rng(seed)
    sets = (rng.choice(m, size=k, replace=False) for m, k in zip(t.dims, sizes))
    sel = IndexSelection(t.dims, *sets)
    p, q, r = sel.sizes
    fibers = t.data[np.ix_(sel.i_set, sel.j_set)]  # (p, q, m3)
    w = pinv(fibers.reshape(p * q, -1)[:, sel.k_set])  # (r, p*q)
    expected = np.zeros((q * r, p * r, p * q))
    for k, kk in enumerate(sel.k_set):
        pk = pinv(fibers[:, :, kk])  # (q, p)
        for j in range(q):
            for i in range(p):
                expected[j * r + k, i * r + k, :] = pk[j, i] * w[k, :]
    assert np.array_equal(flrta_approx(t, sel).core.data, expected)


# ---------------------------------------------------------------------------
# flrta_solve

def _messages(record) -> list[str]:
    return [str(w.message) for w in record]


@settings(max_examples=80, deadline=None)
@given(
    _selection_cases(), st.integers(1, 4), st.integers(0, 2**16), st.sampled_from([None, 1e-9, 0.3])
)
@example((random_tensor(np.random.default_rng(5), (1, 4, 4)), (1, 2, 3)), 3, 1, None)
@example((random_tensor(np.random.default_rng(6), (3, 4, 2)), (3, 4, 2)), 2, 0, 0.3)
@example((DenseTensor3(np.zeros((4, 4, 4))), (2, 2, 2)), 4, 0, None)
def test_flrta_solve_is_select_indices_then_flrta_approx(case, trials, seed, pinv_tol):
    t, sizes = case
    with warnings.catch_warnings(record=True) as selected:
        warnings.simplefilter("always")
        sel = select_indices(t, sizes, trials=trials, seed=seed)
    fac = flrta_approx(t, sel, pinv_tol=pinv_tol)
    with warnings.catch_warnings(record=True) as solved:
        warnings.simplefilter("always")
        res = flrta_solve(t, FlrtaOptions(sizes, trials=trials, seed=seed, pinv_tol=pinv_tol))

    assert res.selection == sel
    assert np.array_equal(res.tucker.core.data, fac.core.data)
    assert all(np.array_equal(a, b) for a, b in zip(res.tucker.factors, fac.factors))
    norm = hs_norm(t)
    want = np.linalg.norm(t.data - fac.reconstruct().data)
    assert abs(res.approx_error - want) <= 1e-14 * norm
    assert res.degenerate == bool(np.isinf(sel.chosen_conditions.worst))
    # select_indices' warnings, then one more exactly when the error reaches the norm.
    extra = _messages(solved)[len(selected):]
    assert _messages(solved)[: len(selected)] == _messages(selected)
    assert len(extra) == (res.approx_error >= norm > 0.0)
    assert all(m.startswith("FLRTA error is ") for m in extra)


def test_flrta_solve_warns_when_its_error_reaches_the_norm(tmp_path):
    # The README's example: a noisy rank-10 30^3 tensor at sections of its rank.
    path = str(tmp_path / "t.t3")
    argv = ["gen", path, "--dims", "30,30,30", "--mlrank", "10,10,10", "--noise", "1e-3"]
    assert main(argv + ["--seed", "1"]) == 0
    t = read_tensor_file(path)
    message = (
        r"^FLRTA error is 1\.31 times the tensor's norm at section sizes \(10, 10, 10\), "
        r"no better than the zero tensor; try larger sections$"
    )
    with pytest.warns(RuntimeWarning, match=message) as record:
        res = flrta_solve(t, FlrtaOptions((10, 10, 10), seed=DEFAULT_SEED))
    assert len(record) == 1
    assert round(res.approx_error / hs_norm(t), 2) == 1.31

    # An exact cross warns of nothing (any warning is an error here).
    exact = tucker_tensor(np.random.default_rng(0), (12, 12, 12), (2, 2, 2))
    res = flrta_solve(exact, FlrtaOptions((2, 2, 2)))
    assert res.approx_error <= 1e-14 * hs_norm(exact)
    assert not res.degenerate


@pytest.mark.parametrize(
    "command, ranks, flags, message",
    [row for row in _BAD_OPTIONS if row.id.startswith("flrta-")],
)
def test_flrta_options_refuse_what_the_cli_refuses(command, ranks, flags, message):
    # The CLI's bad options, read as its parser reads them, refused with its one line.
    args = build_parser().parse_args([command, "t.t3", *ranks.split(","), "o", *flags])
    with pytest.raises(ValueError) as exc_info:
        FlrtaOptions((args.p, args.q, args.r), trials=args.trials, pinv_tol=args.pinv_tol)
    assert str(exc_info.value) == message


# ---------------------------------------------------------------------------
# core fitting

def test_fit_core_full_with_identity_factors_returns_the_tensor():
    rng = np.random.default_rng(111)
    t = random_tensor(rng, (3, 4, 2))
    core = fit_core_full(t, (np.eye(3), np.eye(4), np.eye(2)))
    assert_allclose(core.data, t.data, rtol=1e-12, atol=1e-14)


def test_fit_core_full_with_orthonormal_rows_is_the_coefficient_tensor():
    rng = np.random.default_rng(112)
    t = random_tensor(rng, (5, 4, 6))
    frames = [random_orthonormal(rng, m, k) for m, k in zip(t.dims, (2, 2, 3))]
    triple = SubspaceTriple(*(Subspace(f) for f in frames))
    core = fit_core_full(t, tuple(f.T for f in frames))
    assert_allclose(core.data, coefficient_tensor(t, triple).data, rtol=1e-11, atol=1e-13)


def test_fit_core_full_is_optimal_among_cores():
    rng = np.random.default_rng(113)
    t = random_tensor(rng, (5, 4, 3))
    factors = tuple(rng.standard_normal((2, m)) for m in t.dims)
    best = fit_core_full(t, factors)

    def full_error(core):
        rec = np.einsum("abc,ai,bj,ck->ijk", core, *factors)
        return np.linalg.norm(t.data - rec)

    e_best = full_error(best.data)
    for _ in range(30):
        other = best.data + rng.standard_normal(best.dims) * rng.uniform(0.01, 10)
        assert full_error(other) >= e_best - 1e-12


def test_fit_core_full_recovers_an_exact_decomposition():
    rng = np.random.default_rng(114)
    core = rng.standard_normal((2, 3, 2))
    factors = tuple(rng.standard_normal((k, m)) for k, m in zip((2, 3, 2), (6, 7, 5)))
    t = DenseTensor3(np.einsum("abc,ai,bj,ck->ijk", core, *factors))
    refit = fit_core_full(t, factors)
    rec = np.einsum("abc,ai,bj,ck->ijk", refit.data, *factors)
    assert_allclose(rec, t.data, rtol=0, atol=1e-10)


def test_fit_core_cross_equals_full_fit_on_the_complete_grid():
    rng = np.random.default_rng(115)
    t = random_tensor(rng, (4, 3, 3))
    factors = tuple(rng.standard_normal((2, m)) for m in t.dims)
    sel = IndexSelection(t.dims, range(4), range(3), range(3))
    a = fit_core_full(t, factors)
    b = fit_core_cross(t, factors, sel)
    assert_allclose(b.data, a.data, rtol=1e-8, atol=1e-10)


def test_fit_core_cross_is_never_better_on_the_full_objective():
    rng = np.random.default_rng(116)
    for _ in range(5):
        t = random_tensor(rng, (5, 5, 4))
        factors = tuple(rng.standard_normal((2, m)) for m in t.dims)
        sel = IndexSelection(t.dims, (0, 2), (1, 3), (0, 3))

        def full_error(core):
            rec = np.einsum("abc,ai,bj,ck->ijk", core, *factors)
            return np.linalg.norm(t.data - rec)

        e_full = full_error(fit_core_full(t, factors).data)
        e_cross = full_error(fit_core_cross(t, factors, sel).data)
        assert e_full <= e_cross + 1e-12


def test_fit_core_cross_warns_on_rank_deficient_design():
    rng = np.random.default_rng(117)
    t = random_tensor(rng, (3, 3, 3))
    f1 = np.ones((2, 3))  # identical rows -> dependent design columns
    f2 = rng.standard_normal((2, 3))
    f3 = rng.standard_normal((2, 3))
    sel = IndexSelection(t.dims, (0, 1), (0, 1), (0, 1))
    with pytest.warns(RankDeficientDesignWarning):
        fit_core_cross(t, (f1, f2, f3), sel)


def test_fit_core_validates_factor_shapes():
    t = DenseTensor3(np.zeros((3, 3, 3)))
    bad = (np.zeros((2, 4)), np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        fit_core_full(t, bad)
    with pytest.raises(ValueError):
        fit_core_cross(t, bad, IndexSelection(t.dims, (0,), (0,), (0,)))


def test_trial_conditions_worst():
    rec = TrialConditions((0,), (1,), (2,), 5.0, (2.0, 7.0))
    assert rec.worst == 7.0
