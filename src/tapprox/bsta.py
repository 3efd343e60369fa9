"""Best subspace approximation of a 3-tensor by alternating relaxation.

Given target ranks ``(p, q, r)``, the solver looks for subspaces
``X, Y, Z`` of the three mode spaces such that the orthogonal projection
of the tensor onto ``X (x) Y (x) Z`` is as large as possible --
equivalently, the distance from the tensor to the product is minimal.

One sweep updates the modes in turn.  With two frames held fixed the
problem in the remaining mode is linear: the optimal subspace is spanned
by the dominant left singular vectors of a projected operator, so the
objective can never decrease.  Converged
points are certified by an invariant-subspace residual: at a critical
point each frame spans an invariant subspace of its projected Gram
matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .subspace import (
    Subspace,
    SubspaceTriple,
    _check_triple,
    _frames_tucker,
    distance,
)
from .tensor_core import (
    _TINY,
    DenseTensor3,
    TuckerFactorization,
    _check_mode,
    _check_ranks,
    _checked_norm,
    _mode_product,
    _positive_int,
    _rank_cutoff,
    _seed,
    _shrink_order,
    _three_positive_ints,
    _tolerance,
    _unfold,
    unfold,
)

DEFAULT_MAX_SWEEPS = 200
DEFAULT_REL_TOL = 1e-10
DEFAULT_CRIT_TOL = 1e-6

@dataclass(frozen=True)
class BstaOptions:
    """Knobs for :func:`bsta_solve`.

    Parameters
    ----------
    target_ranks : (p, q, r)
        Dimensions of the mode-1, mode-2 and mode-3 subspaces.
    max_sweeps : int
        Upper bound on full relaxation sweeps.
    rel_tol : float
        Stop once the objective gain of a full sweep drops below
        ``rel_tol`` times the squared norm of the input tensor.
    init : str
        ``"hosvd"`` (the sequentially truncated HOSVD of :func:`hosvd_init`)
        or ``"random"`` (seeded random orthonormal frames).  Both are taken
        on the tensor the sweeps run on, compressed when one mode is long
        (see :func:`bsta_solve`).
    seed : int
        Seed for the random initialization; a non-negative int.
    crit_tol : float
        Threshold for the critical-point certificate.
    """

    target_ranks: tuple[int, int, int]
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    rel_tol: float = DEFAULT_REL_TOL
    init: str = "hosvd"
    seed: int = 0
    crit_tol: float = DEFAULT_CRIT_TOL

    def __post_init__(self) -> None:
        ranks = _three_positive_ints(self.target_ranks, "target_ranks")
        object.__setattr__(self, "target_ranks", ranks)
        object.__setattr__(self, "max_sweeps", _positive_int(self.max_sweeps, "max_sweeps"))
        object.__setattr__(self, "seed", _seed(self.seed))
        _tolerance(self.rel_tol, "rel_tol", positive=True)
        _tolerance(self.crit_tol, "crit_tol", positive=True)
        if self.init not in ("hosvd", "random"):
            raise ValueError(f"init must be 'hosvd' or 'random', got {self.init!r}")


@dataclass
class BstaResult:
    """Outcome of :func:`bsta_solve`.

    ``objective_history`` records the squared projection norm after every
    mode update (three entries per sweep) and is non-decreasing.
    ``approx_error`` is :func:`~.subspace.distance` from the input to the final
    product subspace, so ``approx_error**2 + objective_history[-1]`` equals the
    squared norm of the input.  ``stop_reason`` says why the sweep loop
    ended: ``"gain"`` when a sweep's last objective beat its start's by less
    than the ``rel_tol`` floor, ``"max_sweeps"`` when the budget ran out first.
    ``converged`` means the loop stopped on the gain floor *and* the
    critical-point certificate passed, so a ``"gain"`` stop can still
    leave ``converged`` false when the residual exceeds ``crit_tol``.

    ``tucker`` holds the coefficient tensor as its core and the frames,
    transposed to ``(k, m)``, as its factors, so ``tucker.reconstruct()``
    is the projection of the input onto the product subspace.
    """

    subspaces: SubspaceTriple
    tucker: TuckerFactorization
    objective_history: list[float] = field(repr=False)
    approx_error: float
    sweeps: int
    stop_reason: str
    converged: bool
    critical_point_residual: float


def projected_operator(t: DenseTensor3, mode: int, a: Subspace, b: Subspace) -> np.ndarray:
    """Unfolding of ``t`` after compressing the two other modes.

    ``a`` lives in the lower and ``b`` in the higher of the two remaining
    modes.  Entry ``(i, (col_a, col_b))`` of the result is the inner
    product of ``t`` with ``e_i`` in mode ``mode`` and the frames'
    columns in the other modes; columns are ordered lexicographically
    with the higher mode fastest, matching :func:`~.tensor_core.unfold`.

    Every column of the result is a combination of the columns of the
    mode-``mode`` unfolding of ``t``, which is what lets :func:`bsta_solve`
    sweep on a compressed tensor when that mode is long.

    After its ambient-dims check it is ``_operator``: two
    ``tensor_core._mode_product`` calls, then ``tensor_core._unfold``.  A
    sweep and the certificate build their mode-1 operators so; their mode-2
    and mode-3 operators make the same products in the same order, but
    share the first one (:func:`_sweep`, :func:`verify_critical_point`).
    """
    ax = _check_mode(mode)
    expected = tuple(m for k, m in enumerate(t.dims) if k != ax)
    got = (a.ambient_dim, b.ambient_dim)
    if got != expected:
        raise ValueError(
            f"ambient dims {got} do not match the non-mode-{mode} tensor dims {expected}"
        )
    return _operator(t.data, ax, a.frame, b.frame)


def _operator(data: np.ndarray, ax: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`projected_operator` of 0-based axis ``ax`` on raw frames, unchecked."""
    lo, hi = (k for k in range(3) if k != ax)
    return _unfold(_mode_product(_mode_product(data, a.T, lo), b.T, hi), ax)


def _dominant_left_frame(
    m: np.ndarray | tuple[int, int], k: int, gram: np.ndarray | None = None, times=None
) -> np.ndarray:
    """Orthonormal frame of the top ``k`` left singular vectors of ``m``.

    This is the one rule for a frame: :func:`hosvd_init` applies it to each
    unfolding and each sweep's mode update to its projected operator.  It
    takes the top ``k`` eigenvectors ``V`` of the short side's Gram matrix,
    largest first.  For a wide or square ``m`` (rows <= cols) that is
    ``m @ m.T``, and ``V`` is the frame.  For a tall ``m`` it is
    ``m.T @ m``, and the frame is the orthonormal factor of one QR of
    ``m V``, whose columns are the top left singular vectors scaled by
    their singular values; when ``m`` has fewer than ``k`` columns, the same
    QR against ``e_1 .. e_k`` completes the frame with zero-energy
    directions.  When ``m``'s entries are not at hand (:func:`_full_mode_frame`),
    ``m`` is its ``(rows, cols)`` shape, ``gram`` its short-side Gram matrix
    and ``times`` the map ``w -> m @ w``.  At a tie across the ``k``
    boundary any dominant subspace is optimal, and this returns the one
    ``eigh`` orders first.  Callers keep ``k`` at most the row count.

    A frame is resolved only to about ``eps*s1**2/(sk**2 - sk1**2)`` for
    singular values ``s1 >= sk > sk1`` (indices 1, k, k+1), where a thin SVD
    reaches ``eps*s1/(sk - sk1)``; the energy it captures is resolved to
    rounding.  On the criterion-8 tensor at ranks (3, 3, 3), from the
    ST-HOSVD start, the converged operators' frames are 2.7e-6 to 8.5e-5
    from their SVD frames in projector Frobenius norm (mode 1: 3.4e-5), yet
    the captured energy agrees to 4.3e-16 relative, and a solve with SVD
    frames ends 8.0e-13 * ||t|| from this one's error.
    """
    rows, cols = m.shape if gram is None else m
    tall = rows > cols
    if gram is None:
        gram = m.T @ m if tall else m @ m.T
    v = np.linalg.eigh(gram)[1][:, ::-1][:, :k]
    if not tall:
        return v
    a = m @ v if times is None else times(v)
    if cols < k:
        a = np.hstack([a, np.eye(rows, k)])
    return np.linalg.qr(a)[0][:, :k]


def random_triple(
    dims: tuple[int, int, int], ranks: tuple[int, int, int], seed=0
) -> SubspaceTriple:
    """Seeded random subspace triple (orthonormalized Gaussian frames)."""
    dims = _three_positive_ints(dims, "dims")
    rng = np.random.default_rng(_seed(seed))
    frames = []
    for m, k in zip(dims, _check_ranks(dims, ranks)):
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        frames.append(Subspace(q))
    return SubspaceTriple(*frames)


def hosvd_init(t: DenseTensor3, ranks: tuple[int, int, int]) -> SubspaceTriple:
    """Initial triple by the sequentially truncated HOSVD (ST-HOSVD).

    The modes are visited in the order of the multilinear product, smallest
    ``k_j / m_j`` first, ties in axis order (``tensor_core._shrink_order``).
    Each mode's frame is :func:`_dominant_left_frame` of the unfolding of
    the tensor already truncated in the modes visited before it, the rule
    every relaxation step applies to a projected operator; the tensor is
    then truncated in that mode too.  So only the first mode sees the full
    tensor (:func:`_full_mode_frame`, which copies no unfolding of it), and
    the later short-side Gram matrices are of the shrunk one.  No step
    takes an SVD.

    As for the HOSVD, ``distance(t, s)**2 <= sum_j tail_j**2``, where
    ``tail_j**2`` is the sum of the squared singular values of ``unfold(t, j)``
    past ``k_j`` (Vannieuwenhoven, Vandebril & Meerbergen, SISC 2012).  The
    first mode's frame is the HOSVD's; the later ones capture the top energy
    of the truncated tensor, not of ``t``.
    """
    ranks = _check_ranks(t.dims, ranks)
    frames = [None, None, None]
    data = t.data
    for n, ax in enumerate(_shrink_order(ranks, t.dims)):
        if n == 0:
            f = _full_mode_frame(t, ax, ranks[ax])
        else:
            f = _dominant_left_frame(_unfold(data, ax), ranks[ax])
        frames[ax] = f
        data = _mode_product(data, f.T, ax)
    return SubspaceTriple(*(Subspace(f) for f in frames))


def _full_mode_frame(t: DenseTensor3, ax: int, k: int) -> np.ndarray:
    """:func:`_dominant_left_frame` of ``unfold(t, ax + 1)``, with no copy of the tensor.

    Mode 1's unfolding is a view, so it takes the frame rule as it is.  For
    mode 2 or 3 the rule is given the unfolding's shape, its short-side Gram
    matrix summed from ``t.data`` in place (:func:`_short_gram`) and its
    product with a thin matrix (:func:`_unfolding_times`), so no unfolding
    of the tensor is copied.
    """
    if ax == 0:
        return _dominant_left_frame(unfold(t, 1), k)
    m = t.dims[ax]
    return _dominant_left_frame(
        (m, t.size // m), k, _short_gram(t.data, ax), lambda w: _unfolding_times(t.data, ax, w)
    )


def _short_gram(data: np.ndarray, ax: int) -> np.ndarray:
    """Gram matrix of the short side of the mode-``ax + 1`` unfolding ``A`` of ``data``.

    ``A @ A.T`` when ``A`` is wide or square and ``A.T @ A`` when it is tall,
    summed from ``data`` in place: ``A`` is a view of ``data`` for mode 1
    and the transpose of ``D = data.reshape(-1, m3)`` for mode 3.  For mode
    2, ``A @ A.T`` is ``sum_i data[i] @ data[i].T``, and block ``(i, i')`` of
    ``A.T @ A`` is ``data[i].T @ data[i']``, written into place by one
    batched product.
    """
    m = data.shape[ax]
    tall = m > data.size // m
    if ax == 0:
        a = data.reshape(m, -1)
        return a.T @ a if tall else a @ a.T
    if ax == 2:
        d = data.reshape(-1, m)
        return d @ d.T if tall else d.T @ d
    if not tall:
        g = np.zeros((m, m))
        for slab in data:
            g += slab @ slab.T
        return g
    n1, _, n3 = data.shape
    g = np.empty((n1, n3, n1, n3))
    np.matmul(data.transpose(0, 2, 1)[:, None], data[None], out=g.transpose(0, 2, 1, 3))
    return g.reshape(n1 * n3, n1 * n3)


def _unfolding_times(data: np.ndarray, ax: int, w: np.ndarray) -> np.ndarray:
    """``A @ w`` for the mode-``ax + 1`` unfolding ``A`` of ``data``, with no copy of ``data``.

    ``w`` has one row per column of ``A``.  For mode 2 the product is
    summed one slab ``data[i]`` at a time, so it holds only its result.
    """
    m = data.shape[ax]
    if ax == 0:
        return data.reshape(m, -1) @ w
    if ax == 2:
        return data.reshape(-1, m).T @ w
    w = w.reshape(data.shape[0], data.shape[2], -1)
    out = data[0] @ w[0]
    for slab, block in zip(data[1:], w[1:]):
        out += slab @ block
    return out


def _sweep(
    data: np.ndarray, frames
) -> tuple[list[np.ndarray], float, tuple[float, ...], tuple[np.ndarray, np.ndarray]]:
    """One alternating sweep on raw ``(m, k)`` frames ``X, Y, Z``.

    Each mode's frame becomes the dominant left frame of its projected
    operator, the other two held.  The mode-1 operator is :func:`_operator`
    of ``data``.  The mode-2 and mode-3 operators both start from
    ``t1 = data x_1 X^T`` at the updated ``X``, which is formed once: mode 2
    takes ``t1 x_3 Z^T`` and mode 3 ``t12 = t1 x_2 Y^T`` at the updated
    ``Y``, the products :func:`_operator` would make, in its order.  So a
    sweep reads the full-size ``data`` twice.  Returns the new frames
    (C-contiguous, as :class:`~.subspace.Subspace` stores them, so products
    keep their bits), the given frames' objective ``|X^T M_1|^2`` on the
    first operator, the objective after each update, and ``(t1, t12)``; the
    sweep's gain is the last objective minus the given frames'.  ``t1`` is at
    the returned ``X`` and ``t12`` at the returned ``X`` and ``Y``: after the
    last sweep on ``t`` they are the products :func:`verify_critical_point`
    shares between its mode-2 and mode-3 operators (:func:`bsta_solve`).
    """
    x, y, z = frames
    objectives = []

    def update(m: np.ndarray, k: int) -> np.ndarray:
        f = np.ascontiguousarray(_dominant_left_frame(m, k))
        objectives.append(float(np.linalg.norm(f.T @ m) ** 2))
        return f

    m = _operator(data, 0, y, z)
    before = float(np.linalg.norm(x.T @ m) ** 2)
    x = update(m, x.shape[1])
    t1 = _mode_product(data, x.T, 0)
    y = update(_unfold(_mode_product(t1, z.T, 2), 1), y.shape[1])
    t12 = _mode_product(t1, y.T, 1)
    z = update(_unfold(t12, 2), z.shape[1])
    return [x, y, z], before, tuple(objectives), (t1, t12)


def verify_critical_point(
    t: DenseTensor3,
    s: SubspaceTriple,
    tol: float = DEFAULT_CRIT_TOL,
    *,
    _formed: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, bool]:
    """Invariant-subspace certificate for a candidate solution.

    At a critical point each frame ``F`` spans an invariant subspace of
    ``G = M @ M.T``, where ``M`` is the projected operator of its mode.
    The residual for one mode is ``|G F - F (F^T G F)|_F / max(|G|_F, tiny)``;
    the returned residual is the worst over the three modes, together
    with the verdict ``residual <= tol``.

    ``G`` itself is never formed: ``G F`` is computed as ``M (M^T F)``,
    and ``|G|_F`` from the smaller of ``M^T M`` and ``M M^T``, whose
    Frobenius norms are equal.  A tall mode (``M`` of shape ``m x n`` with
    ``m`` much larger than ``n``) thus costs ``n x n`` memory, not ``m x m``.

    Each ``M`` is first scaled by the power of two that brings its largest
    absolute entry into ``[0.5, 1)``.  So ``G F`` and ``|G|_F`` can neither
    underflow nor overflow, and the residual does not change with the
    scale of ``t``; the scaling is exact, so at scales where the unscaled
    formula is safe it gives the same bits.  A NaN residual (from an
    operator that overflowed) fails the certificate.

    Mode 1's ``M`` is :func:`projected_operator` of ``t``.  Modes 2 and 3
    share ``t1 = t x_1 X^T``: mode 2's ``M`` is ``unfold_2(t1 x_3 Z^T)`` and
    mode 3's is ``unfold_3(t12)``, ``t12 = t1 x_2 Y^T``.  These are the
    products :func:`projected_operator` makes, in its order, so every
    residual has its bits, and the certificate reads ``t`` twice, not three
    times.  :func:`bsta_solve` hands in ``(t1, t12)`` at the final frames
    through the private ``_formed``; otherwise they are formed here.
    """
    _tolerance(tol, "tol", positive=True)
    _check_triple(t, s)
    x, y, z = (sub.frame for sub in s)
    m1 = projected_operator(t, 1, s.y, s.z)
    t1, t12 = _formed or _first_products(t.data, x, y)
    operators = (m1, _unfold(_mode_product(t1, z.T, 2), 1), _unfold(t12, 2))
    rels = []
    for f, m in zip((x, y, z), operators):
        m = np.ldexp(m, -np.frexp(np.max(np.abs(m)))[1])
        gf = m @ (m.T @ f)
        resid = gf - f @ (f.T @ gf)
        small_gram = m.T @ m if m.shape[0] > m.shape[1] else m @ m.T
        rels.append(np.linalg.norm(resid) / max(np.linalg.norm(small_gram), _TINY))
    worst = float(np.max(rels))  # np.max keeps a NaN, and NaN <= tol is False
    return worst, worst <= tol


def _first_products(data: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``t1 = data x_1 X^T`` and ``t12 = t1 x_2 Y^T`` on raw frames."""
    t1 = _mode_product(data, x.T, 0)
    return t1, _mode_product(t1, y.T, 1)


def _long_mode(dims, ranks) -> int | None:
    """Index of the one mode worth compressing, or ``None``.

    A mode qualifies when it is longer than the product of the other two
    dims (so at most one mode can) and its rank is at most the product of
    the other two ranks.  A larger rank exceeds the column count of the
    mode's projected operator, so part of its frame is a zero-energy
    completion, which would differ between the full and the compressed space.
    """
    for j in range(3):
        a, b = (k for k in range(3) if k != j)
        if dims[j] > dims[a] * dims[b] and ranks[j] <= ranks[a] * ranks[b]:
            return j
    return None


def _compress(t: DenseTensor3, j: int, k: int):
    """The tensor the sweeps run on when mode ``j`` (0-based) is long, and the map back.

    With ``A`` the mode-``j`` unfolding (``m_j x n``, ``n = m_p * m_q``) and
    ``A.T @ A = V diag(lam) V^T`` (:func:`_short_gram`, then ``eigh``,
    largest first), ``W = A V / sqrt(lam)`` over the kept eigenvalues is a
    basis of the kept part of the unfolding's range.  It is orthonormal
    only up to the Gram matrix's rounding, about ``eps * lam_1``, which is
    ``eps * s_1**2 / s**2`` in a kept direction of singular value ``s``.  So
    ``W`` is orthonormalised once: with ``W.T @ W = R^T R`` (Cholesky),
    ``L = W R^{-1}`` is orthonormal to rounding.  ``W.T @ W`` and ``t x_j
    W^T`` are summed over blocks of ``n`` rows of ``W``, so no ``m_j x n``
    array is held.  Returns ``(t x_j L^T, V / sqrt(lam) R^{-1})``: the
    compressed tensor, ``(t x_j W^T) x_j R^{-T}``, and the matrix that maps
    a frame ``F`` of it back as the orthonormal factor of ``A (V / sqrt(lam)
    R^{-1}) F = L F``, ``m_j x k`` work.  So the sweeps on the compressed
    tensor are those on ``t`` to rounding, whatever the conditioning of the
    kept directions, and what ``t x_j L^T`` leaves out of ``t`` is the part
    outside ``L``'s range.

    Only the eigenvalues above ``max(m_j, n) * eps * lam_1``, the Gram
    matrix's rounding, are kept: the rule of
    :func:`~.tensor_core.numerical_rank` applied to the squared spectrum,
    the singular values above ``sqrt(max(m_j, n) * eps) * s_1``.  This also
    keeps ``W.T @ W`` within about ``1 / max(m_j, n)`` of the identity in
    every entry, so its Cholesky factor exists.  The directions below the
    cutoff are dropped.  The sweeps do not see them, each holds at most
    ``max(m_j, n) * eps * |t|**2`` of the squared norm, and the error,
    computed on ``t``, keeps their part.  When ``k`` exceeds the kept count,
    as for a zero or rank-deficient mode, the frame would need dropped
    directions, so this returns ``(t, None)``: the sweeps run on ``t``.
    """
    lam, v = np.linalg.eigh(_short_gram(t.data, j))
    lam, v = lam[::-1], v[:, ::-1]
    kept = _rank_cutoff(lam, (t.dims[j], lam.size))
    if k > kept:
        return t, None
    x = v[:, :kept] / np.sqrt(lam[:kept])
    gram, core, n = 0.0, 0.0, lam.size
    for lo in range(0, t.dims[j], n):
        block = t.data[(slice(None),) * j + (slice(lo, lo + n),)]
        w = _unfolding_times(block, j, x)
        gram = gram + w.T @ w
        core = core + _mode_product(block, w.T, j)
    r_inv = np.linalg.inv(np.linalg.cholesky(gram).T)
    return DenseTensor3(_mode_product(core, r_inv.T, j), _fresh=True), x @ r_inv


def bsta_solve(t: DenseTensor3, opts: BstaOptions) -> BstaResult:
    """Alternating relaxation for the best subspace approximation.

    Sweeps raw frames from an ST-HOSVD or seeded random start until a sweep
    gains less than ``rel_tol * |t|^2`` (its last objective minus that of
    the frames it starts from, both from :func:`_sweep`) or ``max_sweeps``
    runs out, then certifies the final triple with :func:`verify_critical_point`.
    :class:`~.subspace.Subspace` validates only the start and final frames.

    The certificate, the Tucker core and the error are computed on ``t``,
    and the finish is one for every solve.  It takes ``t1 = t x_1 X^T`` and
    ``t12 = t1 x_2 Y^T`` at the final frames: the last sweep's when the
    sweeps ran on ``t``, else formed once from ``t`` at the mapped-back
    frames.  The certificate builds its mode-1 operator from ``t`` and
    its mode-2 and mode-3 operators from those (:func:`verify_critical_point`).
    When the multilinear product visits mode 1 first (a cube at equal
    ranks, say), the Tucker core is one more small product of them, with
    the bits of :func:`~.subspace.coefficient_tensor`; otherwise it is
    formed from ``t``.  ``t1`` is released before
    :func:`~.subspace.distance` forms its projection.  So a 1-sweep solve of
    a cube at equal ranks makes five full-size mode products: the start's
    truncation, the sweep's two, the certificate's mode 1 and the error's
    coefficient tensor.  On a compressed long mode 1 (70 x 4 x 4 at ranks
    (2, 2, 2), say) it makes three: ``t1``, the certificate's mode 1 and the
    error's.

    When one mode is longer than the product of the other two dims
    (``m_j > m_p * m_q``, and ``k_j <= k_p * k_q``), the sweeps run on the
    compressed tensor ``t x_j L^T`` of :func:`_compress`: at most
    ``m_p * m_q`` rows in mode ``j`` instead of ``m_j``, where ``L`` is the
    basis ``W = A V / sqrt(lam)`` of the mode-``j`` unfolding ``A``'s range,
    from the eigendecomposition ``A^T A = V diag(lam) V^T`` of its small
    Gram matrix, orthonormalised by the Cholesky factor ``R`` of ``W^T W``.
    Every projected operator of mode ``j`` has its columns in that range,
    so its dominant left subspace is ``L`` times the compressed operator's,
    and the operators of the other two modes do not change.  The objective
    history is that of the sweeps on ``t`` to rounding, apart from the
    directions below :func:`_compress`'s eigenvalue cutoff; when ``k_j``
    exceeds the kept directions (a zero or rank-deficient mode) the sweeps
    run on ``t`` itself.  Both starts are taken on the tensor the sweeps run
    on; the compressed one has ``t``'s mode spectra.  The frame ``F`` of
    mode ``j`` is mapped back as the orthonormal factor of one QR of ``A (V
    / sqrt(lam) R^{-1} F)``.

    Every frame of the start and of the sweeps comes from the one rule of
    :func:`_dominant_left_frame`, a short-side Gram matrix's ``eigh`` and,
    for a tall matrix, one QR, and carries its accuracy note.  No step
    takes an SVD or forms an ``m_j x m_p m_q`` array.
    """
    ranks = _check_ranks(t.dims, opts.target_ranks)
    norm = _checked_norm(t)
    j = _long_mode(t.dims, ranks)
    work, back = t, None
    if j is not None:
        work, back = _compress(t, j, ranks[j])

    if opts.init == "hosvd":
        start = hosvd_init(work, ranks)
    else:
        start = random_triple(work.dims, ranks, opts.seed)
    frames = [sub.frame for sub in start]

    gain_floor = opts.rel_tol * max(norm**2, _TINY)

    history: list[float] = []
    stop_reason = "max_sweeps"
    for sweeps in range(1, opts.max_sweeps + 1):  # max_sweeps >= 1
        frames, before, fs, formed = _sweep(work.data, frames)
        history.extend(fs)
        if fs[2] - before < gain_floor:
            stop_reason = "gain"
            break

    if back is not None:
        frames[j] = np.linalg.qr(_unfolding_times(t.data, j, back @ frames[j]))[0]
        formed = _first_products(t.data, frames[0], frames[1])
    s = SubspaceTriple(*(Subspace(f) for f in frames))
    residual, certified = verify_critical_point(t, s, opts.crit_tol, _formed=formed)
    x, y, z = (sub.frame for sub in s)
    t1, t12 = formed
    order = _shrink_order(ranks, t.dims)
    if order[0] != 0:
        tucker = _frames_tucker(t, s)
    else:
        core = t12 if order[1] == 1 else _mode_product(t1, z.T, 2)
        core = _mode_product(core, s[order[2]].frame.T, order[2])
        tucker = TuckerFactorization(DenseTensor3(core, _fresh=True), (x.T, y.T, z.T))
    del formed, t1, t12  # t x_1 X^T goes before distance forms its projection
    return BstaResult(
        subspaces=s,
        tucker=tucker,
        objective_history=history,
        approx_error=distance(t, s),
        sweeps=sweeps,
        stop_reason=stop_reason,
        converged=stop_reason == "gain" and certified,
        critical_point_residual=residual,
    )
