"""Best subspace approximation of a 3-tensor by alternating relaxation.

Given target ranks ``(p, q, r)``, the solver looks for subspaces
``X, Y, Z`` of the three mode spaces such that the orthogonal projection
of the tensor onto ``X (x) Y (x) Z`` is as large as possible --
equivalently, the distance from the tensor to the product is minimal.

One sweep updates the modes in turn.  With two frames held fixed the
problem in the remaining mode is linear: the optimal subspace is spanned
by the dominant left singular vectors of a projected operator, so each
update is a thin SVD and the objective can never decrease.  Converged
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
    coefficient_tensor,
    project,
)
from .tensor_core import (
    DenseTensor3,
    TuckerFactorization,
    _check_mode,
    _check_ranks,
    fold,
    hs_norm,
    unfold,
)

DEFAULT_MAX_SWEEPS = 200
DEFAULT_REL_TOL = 1e-10
DEFAULT_CRIT_TOL = 1e-6

_TINY = float(np.finfo(np.float64).tiny)

#: Relative spread below which neighbouring singular values are treated
#: as tied when extracting a dominant frame.
_TIE_RTOL = 1e-12


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
        ``"hosvd"`` (dominant singular frames of the unfoldings) or
        ``"random"`` (seeded random orthonormal frames).
    seed : int
        Seed for the random initialization.
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
        ranks = tuple(int(k) for k in self.target_ranks)
        if len(ranks) != 3 or min(ranks) < 1:
            raise ValueError(f"target_ranks must be three positive ints, got {self.target_ranks}")
        object.__setattr__(self, "target_ranks", ranks)
        if int(self.max_sweeps) < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        object.__setattr__(self, "max_sweeps", int(self.max_sweeps))
        if not (self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if not (self.crit_tol > 0.0):
            raise ValueError(f"crit_tol must be positive, got {self.crit_tol}")
        if self.init not in ("hosvd", "random"):
            raise ValueError(f"init must be 'hosvd' or 'random', got {self.init!r}")


@dataclass
class BstaResult:
    """Outcome of :func:`bsta_solve`.

    ``objective_history`` records the squared projection norm after every
    mode update (three entries per sweep) and is non-decreasing.
    ``approx_error`` is the distance from the input to the final product
    subspace, so ``approx_error**2 + objective_history[-1]`` equals the
    squared norm of the input.  ``stop_reason`` says why the sweep loop
    ended: ``"gain"`` when a full sweep gained less than the floor set by
    ``rel_tol``, ``"max_sweeps"`` when the sweep budget ran out first.
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

    The operator is two matrix products on reshapes of the C-ordered
    data.  The first reads the tensor with ``a``'s transposed frame on
    the left: ``a^T @ data`` slice by slice for mode 1, and
    ``a^T @ data.reshape(m1, m2*m3)`` for modes 2 and 3.  The second
    contracts ``b`` on that ``k_a``-times smaller result.
    """
    ax = _check_mode(mode)
    rest = [k for k in range(3) if k != ax]
    expected = (t.dims[rest[0]], t.dims[rest[1]])
    got = (a.ambient_dim, b.ambient_dim)
    if got != expected:
        raise ValueError(
            f"ambient dims {got} do not match the non-mode-{mode} tensor dims {expected}"
        )
    m1, m2, m3 = t.dims
    if mode == 1:
        out = (a.frame.T @ t.data).reshape(-1, m3) @ b.frame  # (m1 * ka, kb)
    else:
        w = (a.frame.T @ t.data.reshape(m1, -1)).reshape(-1, m2, m3)  # (ka, m2, m3)
        if mode == 2:
            out = (w.reshape(-1, m3) @ b.frame).reshape(-1, m2, b.dim).transpose(1, 0, 2)
        else:
            out = (b.frame.T @ w).transpose(2, 0, 1)  # (m3, ka, kb)
    return out.reshape(t.dims[ax], -1)


def _complete_frame(frame: np.ndarray, k: int) -> np.ndarray:
    """Pad an orthonormal frame to ``k`` columns with standard basis directions.

    Basis vectors are tried in index order and orthogonalized against the
    columns collected so far, so the result is deterministic.
    """
    m = frame.shape[0]
    if k > m:
        raise ValueError(f"cannot build {k} orthonormal columns in dimension {m}")
    cols = frame
    for i in range(m):
        if cols.shape[1] == k:
            break
        v = np.zeros(m)
        v[i] = 1.0
        r = v - cols @ (cols.T @ v)
        r = r - cols @ (cols.T @ r)
        nrm = float(np.linalg.norm(r))
        if nrm > 1e-8:
            cols = np.hstack([cols, (r / nrm)[:, None]])
    if cols.shape[1] < k:
        raise np.linalg.LinAlgError("frame completion failed to reach the requested dimension")
    return cols


def _dominant_left_frame(m: np.ndarray, k: int, prev: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal frame for a dominant ``k``-dimensional left subspace of ``m``.

    Returns the top ``k`` left singular vectors.  If the matrix has fewer
    than ``k`` singular triplets the frame is completed with standard
    basis directions.  When ``prev`` is given and the singular spectrum
    is (numerically) tied across the ``k`` boundary, the tied directions
    are rotated to maximize overlap with ``prev`` -- the choice of
    dominant subspace is ambiguous there, and preferring the previous
    frame keeps fixed points fixed.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    avail = u.shape[1]
    if k >= avail:
        return u if k == avail else _complete_frame(u, k)
    plain = u[:, :k]
    if prev is None:
        return plain
    tie_tol = _TIE_RTOL * s[0]
    in_group = np.abs(s - s[k - 1]) <= tie_tol
    lo = int(np.argmax(in_group))
    hi = len(s) - 1 - int(np.argmax(in_group[::-1]))
    if hi < k:
        return plain
    fixed = u[:, :lo]
    w = u[:, lo : hi + 1]
    need = k - lo
    _, _, vh = np.linalg.svd(prev.T @ w, full_matrices=False)
    rotated = np.hstack([fixed, w @ vh[:need].T])
    # A near-tie (not an exact one) can trade a sliver of objective for
    # continuity; never trade more than roundoff.
    f_plain = float(np.sum(s[:k] ** 2))
    f_rot = float(np.linalg.norm(rotated.T @ m) ** 2)
    if f_rot >= f_plain - 1e-13 * max(f_plain, 1.0):
        return rotated
    return plain


def random_triple(
    dims: tuple[int, int, int], ranks: tuple[int, int, int], seed=0
) -> SubspaceTriple:
    """Seeded random subspace triple (orthonormalized Gaussian frames)."""
    rng = np.random.default_rng(seed)
    frames = []
    for m, k in zip(dims, _check_ranks(dims, ranks)):
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        frames.append(Subspace(q))
    return SubspaceTriple(*frames)


def _unfolding_frame(u: np.ndarray, k: int) -> np.ndarray:
    """Dominant ``k``-dimensional left frame of an unfolding ``u``.

    A wide ``u`` takes the eigenvectors of ``u @ u.T`` with the ``k``
    largest eigenvalues, largest first: the top left singular subspace
    at a fraction of the cost of a thin SVD of ``u``.  A tall ``u`` keeps
    the SVD, because its row Gram matrix would be the large one.
    """
    if u.shape[0] > u.shape[1]:
        return _dominant_left_frame(u, k)
    _, vecs = np.linalg.eigh(u @ u.T)
    return vecs[:, ::-1][:, :k]


def hosvd_init(t: DenseTensor3, ranks: tuple[int, int, int]) -> SubspaceTriple:
    """Initial triple from the dominant left singular frames of the unfoldings.

    Each mode's frame comes from its ``m x n`` unfolding ``u``: from the
    eigenvectors of the ``m x m`` Gram matrix ``u @ u.T`` when the
    unfolding is wide (``m <= n``), else from a thin SVD of ``u``.  The
    Gram matrix of the longer side is never formed.
    """
    _check_ranks(t.dims, ranks)
    frames = [
        Subspace(_unfolding_frame(unfold(t, mode), ranks[mode - 1]))
        for mode in (1, 2, 3)
    ]
    return SubspaceTriple(*frames)


def relaxation_sweep(
    t: DenseTensor3, s: SubspaceTriple
) -> tuple[SubspaceTriple, tuple[float, float, float]]:
    """One alternating sweep over the three modes.

    Each mode update replaces that subspace with a dominant left subspace
    of the corresponding projected operator (the other two frames held at
    their current values).  Returns the updated triple and the squared
    projection norm after each of the three updates; the sequence extends
    the objective history monotonically.
    """
    _check_triple(t, s)
    subs = [s.x, s.y, s.z]
    objectives = []
    for j in range(3):
        m = projected_operator(t, j + 1, *(subs[k] for k in range(3) if k != j))
        subs[j] = Subspace(_dominant_left_frame(m, subs[j].dim, prev=subs[j].frame))
        objectives.append(float(np.linalg.norm(subs[j].frame.T @ m) ** 2))
    return SubspaceTriple(*subs), tuple(objectives)


def verify_critical_point(
    t: DenseTensor3, s: SubspaceTriple, tol: float = DEFAULT_CRIT_TOL
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
    """
    _check_triple(t, s)
    subs = (s.x, s.y, s.z)
    worst = 0.0
    for j in range(3):
        m = projected_operator(t, j + 1, *(subs[k] for k in range(3) if k != j))
        f = subs[j].frame
        gf = m @ (m.T @ f)
        resid = gf - f @ (f.T @ gf)
        small_gram = m.T @ m if m.shape[0] > m.shape[1] else m @ m.T
        rel = float(np.linalg.norm(resid) / max(np.linalg.norm(small_gram), _TINY))
        worst = max(worst, rel)
    return worst, worst <= tol


def _long_mode(dims, ranks) -> int | None:
    """Index of the one mode worth compressing, or ``None``.

    A mode qualifies when it is longer than the product of the other two
    dims (so at most one mode can) and its rank is at most the product of
    the other two ranks.  A larger rank exceeds the column count of the
    mode's projected operator, so part of its frame is standard-basis
    padding, which would differ between the full and the compressed space.
    """
    for j in range(3):
        a, b = (k for k in range(3) if k != j)
        if dims[j] > dims[a] * dims[b] and ranks[j] <= ranks[a] * ranks[b]:
            return j
    return None


def _with_frame(s: SubspaceTriple, j: int, frame: np.ndarray) -> SubspaceTriple:
    subs = [s.x, s.y, s.z]
    subs[j] = Subspace(frame)
    return SubspaceTriple(*subs)


def bsta_solve(t: DenseTensor3, opts: BstaOptions) -> BstaResult:
    """Alternating relaxation for the best subspace approximation.

    Sweeps :func:`relaxation_sweep` from an HOSVD or seeded random start
    until the objective gain of a full sweep falls below
    ``rel_tol * |t|^2`` or ``max_sweeps`` is exhausted, then certifies
    the final triple with :func:`verify_critical_point`.

    When one mode is longer than the product of the other two dims
    (``m_j > m_p * m_q``, and ``k_j <= k_p * k_q``), the sweeps run on the
    compressed tensor ``t x_j Q^T``, where ``Q`` is an orthonormal basis
    of the column space of the mode-``j`` unfolding (its thin SVD): a
    core with ``m_p * m_q`` rows in mode ``j`` instead of ``m_j``.  This
    is exact, because every projected operator of mode ``j`` has its
    columns in the range of that unfolding, so its dominant left
    subspace is ``Q`` times the compressed operator's, and the operators
    of the other two modes do not change.  The objective history is that
    of the sweeps on ``t`` up to rounding.  A random start is drawn in
    the full dims; its first sweep runs on ``t``, since its mode-``j``
    frame need not lie in the range of ``Q`` before that sweep.  The
    frames are mapped back as ``Q F``, and the certificate, the Tucker
    core and the error are computed on the full tensor.
    """
    ranks = _check_ranks(t.dims, opts.target_ranks)
    j = _long_mode(t.dims, ranks)
    work = t
    if j is not None:
        q, sv, vh = np.linalg.svd(unfold(t, j + 1), full_matrices=False)
        core_dims = tuple(q.shape[1] if k == j else m for k, m in enumerate(t.dims))
        work = fold(sv[:, None] * vh, j + 1, core_dims)

    if opts.init == "hosvd":
        s = hosvd_init(work, ranks)
        obj = hs_norm(coefficient_tensor(work, s)) ** 2
        sweep_on = work
    else:
        s = random_triple(t.dims, ranks, opts.seed)
        obj = hs_norm(coefficient_tensor(t, s)) ** 2
        sweep_on = t

    norm_sq = hs_norm(t) ** 2
    gain_floor = opts.rel_tol * max(norm_sq, _TINY)

    history: list[float] = []
    sweeps = 0
    stop_reason = "max_sweeps"
    for _ in range(opts.max_sweeps):
        s, fs = relaxation_sweep(sweep_on, s)
        if sweep_on is not work:
            # After a sweep on t, the mode-j frame lies in the range of q.
            s = _with_frame(s, j, np.linalg.qr(q.T @ (s.x, s.y, s.z)[j].frame)[0])
            sweep_on = work
        sweeps += 1
        history.extend(fs)
        gain = fs[2] - obj
        obj = fs[2]
        if gain < gain_floor:
            stop_reason = "gain"
            break

    if j is not None:
        s = _with_frame(s, j, q @ (s.x, s.y, s.z)[j].frame)
    residual, certified = verify_critical_point(t, s, opts.crit_tol)
    tucker = TuckerFactorization(
        coefficient_tensor(t, s), (s.x.frame.T, s.y.frame.T, s.z.frame.T)
    )
    # The direct residual norm agrees with sqrt(|t|^2 - objective) by
    # Pythagoras but avoids the sqrt(eps) cancellation floor of the
    # subtraction when the approximation is (near-)exact.
    approx_error = float(np.linalg.norm(t.data - project(t, s).data))
    return BstaResult(
        subspaces=s,
        tucker=tucker,
        objective_history=history,
        approx_error=approx_error,
        sweeps=sweeps,
        stop_reason=stop_reason,
        converged=stop_reason == "gain" and certified,
        critical_point_residual=residual,
    )
