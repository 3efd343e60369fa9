"""Command-line front end: tensor files, run reports, and five subcommands.

    tapprox info FILE
    tapprox gen OUT --dims M1,M2,M3 --mlrank P,Q,R [--noise S] [--seed N]
    tapprox bsta FILE P Q R OUT_PREFIX [options]
    tapprox flrta FILE P Q R OUT_PREFIX [options]
    tapprox bench FILE P,Q,R [P,Q,R ...] [options]

Tensor files are plain text: optional '#' comment lines, a header
``t3 m1 m2 m3``, then ``m1*m2*m3`` whitespace-separated reals in
lexicographic order (third index fastest).  Matrices use the same layout
with a ``m2 rows cols`` header.  Values are written with 17 significant
digits, so write/read round-trips are bit-exact.

All reports are deterministic given flags, seeds and input files;
measured wall time is printed to stderr only, never into a report.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bsta import BstaOptions, bsta_solve
from .flrta import DEFAULT_TRIALS, SelectionError, flrta_approx, select_indices
from .tensor_core import (
    DenseTensor3,
    TuckerFactorization,
    _check_ranks,
    as_matrix,
    hs_norm,
    multilinear_rank,
)

DEFAULT_SEED = 12345
SEED_ENV_VAR = "TAPPROX_SEED"


# ---------------------------------------------------------------------------
# formatting helpers

def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_floats(xs) -> str:
    return ",".join(_fmt_float(x) for x in xs)


def _fmt_dims(xs) -> str:
    return "x".join(str(int(x)) for x in xs)


def _fmt_ints(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


def _fmt_bool(x: bool) -> str:
    return "true" if x else "false"


@dataclass
class RunReport:
    """Ordered key=value record of one command.

    Serialized reports never contain wall-clock time or file paths, so a
    rerun with the same flags, seed and input produces identical bytes.
    """

    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, value: str) -> None:
        self.entries.append((key, value))

    def to_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.entries)

    def to_json(self) -> str:
        return json.dumps(dict(self.entries), indent=2) + "\n"


# ---------------------------------------------------------------------------
# tensor / matrix files

def _read_numeric_file(path: str, magic: str, ndims: int):
    dims: tuple[int, ...] | None = None
    expected = 0
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if dims is None:
                want = f"'{magic} " + " ".join(f"n{d + 1}" for d in range(ndims)) + "'"
                if tokens[0] != magic or len(tokens) != 1 + ndims:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header {want}, got {line!r}"
                    )
                try:
                    dims = tuple(int(tok) for tok in tokens[1:])
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: header dimensions must be "
                        f"integers, got {line!r}"
                    ) from None
                if min(dims) < 1:
                    raise ValueError(
                        f"{path}: line {lineno}: dimensions must be positive, got {dims}"
                    )
                expected = int(np.prod(dims))
                continue
            for tok in tokens:
                try:
                    val = float(tok)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: could not parse {tok!r} as a real number"
                    ) from None
                if not np.isfinite(val):
                    raise ValueError(f"{path}: line {lineno}: non-finite value {tok!r}")
                if len(values) >= expected:
                    raise ValueError(
                        f"{path}: line {lineno}: more than {expected} values"
                    )
                values.append(val)
    if dims is None:
        raise ValueError(f"{path}: missing '{magic}' header line")
    if len(values) != expected:
        raise ValueError(f"{path}: expected {expected} values, found {len(values)}")
    return dims, np.array(values, dtype=np.float64)


def read_tensor_file(path: str) -> DenseTensor3:
    """Read a ``t3`` tensor file."""
    dims, values = _read_numeric_file(path, "t3", 3)
    return DenseTensor3.from_flat(values, dims)


def _write_numeric_file(path: str, header: str, rows, comments) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(" ".join(_fmt_float(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_tensor_file(path: str, t: DenseTensor3, comments=()) -> None:
    """Write a ``t3`` tensor file (one mode-3 fiber per line, 17 digits)."""
    m1, m2, m3 = t.dims
    _write_numeric_file(path, f"t3 {m1} {m2} {m3}", t.data.reshape(m1 * m2, m3), comments)


def read_matrix_file(path: str) -> np.ndarray:
    """Read an ``m2`` matrix file."""
    dims, values = _read_numeric_file(path, "m2", 2)
    return values.reshape(dims)


def write_matrix_file(path: str, m, comments=()) -> None:
    """Write an ``m2`` matrix file (one row per line, 17 digits)."""
    arr = as_matrix(m)
    _write_numeric_file(path, f"m2 {arr.shape[0]} {arr.shape[1]}", arr, comments)


# ---------------------------------------------------------------------------
# shared argument plumbing

def _triple(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated integers, got {text!r}"
        )
    return parts  # type: ignore[return-value]


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _rel_error(error: float, norm: float) -> float:
    return error / norm if norm > 0.0 else 0.0


# ---------------------------------------------------------------------------
# subcommands

def cmd_info(args: argparse.Namespace) -> int:
    t = read_tensor_file(args.file)
    report = RunReport()
    report.add("command", "info")
    report.add("dims", _fmt_dims(t.dims))
    report.add("values", str(t.size))
    report.add("hs_norm", _fmt_float(hs_norm(t)))
    report.add("multilinear_rank", _fmt_dims(multilinear_rank(t)))
    sys.stdout.write(report.to_text())
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    dims, mlrank = args.dims, args.mlrank
    _check_ranks(dims, mlrank, "mlrank")
    if not (np.isfinite(args.noise) and args.noise >= 0.0):
        raise ValueError(
            f"noise standard deviation must be finite and >= 0, got {args.noise}"
        )
    seed = _resolve_seed(args.seed)

    rng = np.random.default_rng(seed)
    core = rng.standard_normal(mlrank)
    qs = [np.linalg.qr(rng.standard_normal((m, k)))[0] for m, k in zip(dims, mlrank)]
    data = np.einsum("abc,ia,jb,kc->ijk", core, *qs, optimize=True)
    if args.noise > 0.0:
        data = data + args.noise * rng.standard_normal(dims)
    t = DenseTensor3(data)

    write_tensor_file(
        args.out,
        t,
        comments=[
            f"random tensor: dims={_fmt_dims(dims)} mlrank={_fmt_dims(mlrank)} "
            f"noise_sigma={_fmt_float(args.noise)} seed={seed}"
        ],
    )
    report = RunReport()
    report.add("command", "gen")
    report.add("dims", _fmt_dims(dims))
    report.add("mlrank", _fmt_dims(mlrank))
    report.add("noise_sigma", _fmt_float(args.noise))
    report.add("seed", str(seed))
    report.add("hs_norm", _fmt_float(hs_norm(t)))
    sys.stdout.write(report.to_text())
    return 0


@dataclass
class Solution:
    """One method's result, as the ``bsta``, ``flrta`` and ``bench`` commands use it.

    ``head`` holds the method's report entries before the shared
    ``error_abs ... storage_ratio`` block and ``tail`` those after it;
    ``work`` is the effort column of the ``bench`` table.
    """

    tucker: TuckerFactorization
    error: float
    head: list[tuple[str, str]]
    tail: list[tuple[str, str]]
    work: str


def _solve_bsta(t, norm, ranks, seed, args) -> Solution:
    opts = BstaOptions(
        target_ranks=ranks,
        max_sweeps=args.max_sweeps,
        rel_tol=args.rel_tol,
        init=args.init,
        seed=seed,
        crit_tol=args.crit_tol,
    )
    result = bsta_solve(t, opts)
    head = [
        ("target_ranks", _fmt_dims(opts.target_ranks)),
        ("init", opts.init),
        ("seed", str(opts.seed)),
        ("max_sweeps", str(opts.max_sweeps)),
        ("rel_tol", _fmt_float(opts.rel_tol)),
        ("crit_tol", _fmt_float(opts.crit_tol)),
        ("hs_norm", _fmt_float(norm)),
        ("objective_final", _fmt_float(result.objective_history[-1])),
        ("sweeps", str(result.sweeps)),
        ("stop_reason", result.stop_reason),
        ("converged", _fmt_bool(result.converged)),
        ("critical_point_residual", _fmt_float(result.critical_point_residual)),
    ]
    tail = [("objective_history", _fmt_floats(result.objective_history))]
    return Solution(result.tucker, result.approx_error, head, tail, f"{result.sweeps} sweeps")


def _solve_flrta(t, norm, sizes, seed, args) -> Solution:
    degenerate = False
    try:
        sel = select_indices(t, sizes, trials=args.trials, seed=seed)
    except SelectionError as exc:
        # Every trial was singular; continue with the best-effort pick so
        # degenerate inputs (e.g. the zero tensor) still produce output.
        print(f"warning: {exc}", file=sys.stderr)
        sel = exc.selection
        degenerate = True
    fac = flrta_approx(t, sel, pinv_tol=args.pinv_tol)
    error = float(np.linalg.norm(t.data - fac.reconstruct().data))
    conds = sel.chosen_conditions
    head = [
        ("section_sizes", _fmt_dims(sizes)),
        ("trials", str(args.trials)),
        ("seed", str(seed)),
        ("pinv_tol", "auto" if args.pinv_tol is None else _fmt_float(args.pinv_tol)),
        ("degenerate", _fmt_bool(degenerate)),
        ("i_set", _fmt_ints(sel.i_set)),
        ("j_set", _fmt_ints(sel.j_set)),
        ("k_set", _fmt_ints(sel.k_set)),
        ("cond_outer", _fmt_float(conds.cond_outer)),
        ("cond_slices", _fmt_floats(conds.cond_slices)),
        ("hs_norm", _fmt_float(norm)),
    ]
    return Solution(fac, error, head, [], f"{args.trials} trials")


#: Per method: solve helper, factor-file suffixes, and whether the factors
#: are written transposed.  BSTA writes its frames (m x k); FLRTA writes
#: its sections as factors (k x m).
_METHODS = {
    "bsta": (_solve_bsta, (".x.mat", ".y.mat", ".z.mat"), True),
    "flrta": (_solve_flrta, (".c1.mat", ".c2.mat", ".c3.mat"), False),
}


def cmd_solve(args: argparse.Namespace) -> int:
    """Run ``bsta`` or ``flrta``: solve, write factors and core, report."""
    solve, suffixes, transposed = _METHODS[args.command]
    t = read_tensor_file(args.file)
    norm = hs_norm(t)
    start = time.perf_counter()
    sol = solve(t, norm, (args.p, args.q, args.r), _resolve_seed(args.seed), args)
    wall = time.perf_counter() - start

    prefix = args.out_prefix
    for suffix, factor in zip(suffixes, sol.tucker.factors):
        write_matrix_file(prefix + suffix, factor.T if transposed else factor)
    write_tensor_file(prefix + ".core.t3", sol.tucker.core)

    stored = sol.tucker.storage_count()
    report = RunReport([("command", args.command), ("dims", _fmt_dims(t.dims)), *sol.head])
    report.add("error_abs", _fmt_float(sol.error))
    report.add("error_rel", _fmt_float(_rel_error(sol.error, norm)))
    report.add("storage_dense", str(t.size))
    report.add("storage_factorized", str(stored))
    report.add("storage_ratio", _fmt_float(stored / t.size))
    report.entries.extend(sol.tail)
    text = report.to_text()
    sys.stdout.write(text)
    with open(prefix + ".report.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.json:
        with open(prefix + ".report.json", "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(f"wall_time_s={wall:.6f}", file=sys.stderr)
    return 0


# The subcommands' former function names, kept for code that refers to them.
cmd_bsta = cmd_flrta = cmd_solve


def cmd_bench(args: argparse.Namespace) -> int:
    t = read_tensor_file(args.file)
    norm = hs_norm(t)
    seed = _resolve_seed(args.seed)

    rows = []
    for ranks in args.ranks:
        for method, (solve, _, _) in _METHODS.items():
            start = time.perf_counter()
            sol = solve(t, norm, ranks, seed, args)
            wall = time.perf_counter() - start
            rel = _rel_error(sol.error, norm)
            rows.append((method, ranks, rel, sol.work, sol.tucker.storage_count() / t.size, wall))

    header = f"{'method':<8}{'ranks':<12}{'rel_error':<18}{'work':<14}{'storage':<12}{'wall_s':<10}"
    print(header)
    for method, ranks, rel, work, ratio, wall in rows:
        print(
            f"{method:<8}{_fmt_dims(ranks):<12}{rel:<18.9e}{work:<14}"
            f"{ratio:<12.6f}{wall:<10.3f}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapprox",
        description="Best subspace and fiber-sampling approximations of dense 3-tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print dims, norm and multilinear rank")
    p_info.add_argument("file", help="tensor file (t3 format)")
    p_info.set_defaults(func=cmd_info)

    p_gen = sub.add_parser("gen", help="generate a random low-multilinear-rank tensor")
    p_gen.add_argument("out", help="output tensor file")
    p_gen.add_argument("--dims", type=_triple, required=True, metavar="M1,M2,M3")
    p_gen.add_argument("--mlrank", type=_triple, required=True, metavar="P,Q,R")
    p_gen.add_argument("--noise", type=float, default=0.0, metavar="SIGMA",
                       help="stddev of added i.i.d. Gaussian noise (default 0)")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_bsta = sub.add_parser("bsta", help="best subspace approximation by alternating relaxation")
    p_bsta.add_argument("file", help="tensor file (t3 format)")
    p_bsta.add_argument("p", type=int)
    p_bsta.add_argument("q", type=int)
    p_bsta.add_argument("r", type=int)
    p_bsta.add_argument("out_prefix", help="prefix for frames, core and report files")
    p_bsta.add_argument("--max-sweeps", type=int, default=BstaOptions.max_sweeps)
    p_bsta.add_argument("--rel-tol", type=float, default=BstaOptions.rel_tol)
    p_bsta.add_argument("--init", choices=("hosvd", "random"), default="hosvd")
    p_bsta.add_argument("--seed", type=int, default=None)
    p_bsta.add_argument("--crit-tol", type=float, default=BstaOptions.crit_tol)
    p_bsta.add_argument("--json", action="store_true", help="also write a JSON report")
    p_bsta.set_defaults(func=cmd_solve)

    p_flrta = sub.add_parser("flrta", help="fiber-sampling low-rank approximation")
    p_flrta.add_argument("file", help="tensor file (t3 format)")
    p_flrta.add_argument("p", type=int)
    p_flrta.add_argument("q", type=int)
    p_flrta.add_argument("r", type=int)
    p_flrta.add_argument("out_prefix", help="prefix for factors, core and report files")
    p_flrta.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_flrta.add_argument("--seed", type=int, default=None)
    p_flrta.add_argument("--pinv-tol", type=float, default=None)
    p_flrta.add_argument("--json", action="store_true", help="also write a JSON report")
    p_flrta.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="compare both methods over a list of ranks")
    p_bench.add_argument("file", help="tensor file (t3 format)")
    p_bench.add_argument("ranks", type=_triple, nargs="+", metavar="P,Q,R")
    p_bench.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_bench.add_argument("--seed", type=int, default=None)
    # bench runs both methods with the defaults of the flags it does not offer.
    p_bench.set_defaults(func=cmd_bench, max_sweeps=BstaOptions.max_sweeps,
                         rel_tol=BstaOptions.rel_tol, init=BstaOptions.init,
                         crit_tol=BstaOptions.crit_tol, pinv_tol=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
