"""Command-line front end: tensor files, run reports, and five subcommands.

    tapprox info FILE
    tapprox gen OUT --dims M1,M2,M3 --mlrank P,Q,R [--noise S] [--seed N]
    tapprox bsta FILE P Q R OUT_PREFIX [options]
    tapprox flrta FILE P Q R OUT_PREFIX [options]
    tapprox bench FILE P,Q,R [P,Q,R ...] [options]

Tensor files are plain text: a header ``t3 m1 m2 m3``, then ``m1*m2*m3``
whitespace-separated reals in lexicographic order (third index fastest),
split across lines in any way.  '#' comment lines and blank lines may
appear anywhere.  ``t3`` is the only format read.  Factor matrices are
written as ``m2 rows cols`` files, which ``np.loadtxt(path, skiprows=1,
ndmin=2)`` loads.  The writers put one mode-3 fiber (or matrix row) on
each line, write each line of a multi-line comment with its own '#', and
use 17 significant digits, so written files read back bit-exactly.  A
line whose values are all +0.0 (FLRTA's core is mostly such lines) is
formatted once per file and reused, with the same bytes; a line holding a
-0.0, which prints as ``-0``, is always formatted value by value.  A bad
file fails with one ValueError line that names the file, the line number
and the first bad token, non-UTF-8 bytes included; comment lines may hold any.
Each body line is read once: NumPy's C reader parses the body a block of
lines at a time, and a block it refuses is read token by token with
``float()``, which gives the same values.  A body of 2 MiB or more in a
regular file is parsed in two processes, where the OS can fork and two CPUs
are free: a forked child reads the blocks past the middle in the same way
and sends their values back, with the same bits.  If the child fails, the
reading process reads on past the middle itself, so every message is the
one-process read's.  Other bodies, pipes among them, are read in one process.

All reports are deterministic given flags, seeds and input files, on the
same NumPy/BLAS build and thread count (BLAS results change in their last
bits with it); measured wall time never goes into a report: ``bsta`` and
``flrta`` print it to stderr, and ``bench`` prints it in its table's
``wall_s`` column.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import signal
import stat
import sys
import time
import warnings

import numpy as np

from .bsta import BstaOptions, bsta_solve
from .flrta import FlrtaOptions, flrta_solve
from .tensor_core import (
    DenseTensor3,
    _all_finite,
    _check_ranks,
    _checked_norm,
    _float_array,
    _multilinear,
    _seed,
    _three_positive_ints,
    _tolerance,
    hs_norm,
    multilinear_rank,
)

DEFAULT_SEED = 12345
SEED_ENV_VAR = "TAPPROX_SEED"

_CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


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


def _report_text(entries) -> str:
    """One ``key=value`` line per ``(key, value)`` entry of a command's report.

    Reports never contain wall-clock time or file paths, so a rerun with
    the same flags, seed and input produces identical bytes.
    """
    return "".join(f"{k}={v}\n" for k, v in entries)


# ---------------------------------------------------------------------------
# tensor / matrix files

def _empty_values(count: int, where: str) -> np.ndarray:
    """``np.empty(count)``, or one ValueError line when it cannot be allocated."""
    try:
        return np.empty(count)
    except (MemoryError, ValueError):
        raise ValueError(f"{where}: {count} values do not fit in memory") from None


def _open_text(path: str, offset: int = 0):
    """``path`` as text from byte ``offset``, which starts a line; a pipe reads from 0."""
    fb = open(path, "rb")
    if offset:
        fb.seek(offset)
    return io.TextIOWrapper(fb, encoding="utf-8", errors="backslashreplace")


def _read_header(path: str, fh):
    """Read ``fh`` through the ``t3`` header line; return the dims and the header's line number."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] != "t3" or len(tokens) != 4:
            raise ValueError(f"{path}: line {lineno}: expected header 't3 n1 n2 n3', got {line!r}")
        try:
            dims = tuple(int(tok) for tok in tokens[1:])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: header dimensions must be integers, got {line!r}"
            ) from None
        if min(dims) < 1:
            raise ValueError(f"{path}: line {lineno}: dimensions must be positive, got {dims}")
        return dims, lineno
    raise ValueError(f"{path}: missing 't3' header line")


#: Body lines per ``np.loadtxt`` call; bounds what one call allocates.
_BLOCK_LINES = 256

#: Bodies of at least this many bytes are parsed in two processes where
#: the OS allows (see :func:`_body_split`).  On a 2-core host a 1.3 MB body
#: reads as fast either way, and a 2.5 MB one 30 % faster in two.  Tests
#: set it to 0 or to infinity to force either path.
_PARALLEL_MIN_BYTES = 1 << 21


def _read_body(path: str, lines, values: np.ndarray, filled: int, lineno: int):
    """Parse ``lines`` into ``values[filled:]`` a block at a time (see
    :func:`read_tensor_file`); ``lineno`` numbers the line before the first
    of ``lines``.  Returns the new ``filled, lineno``.
    """
    expected = values.size
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        try:
            # A block of blank lines warns "input contained no data".
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                row = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=1).ravel()
        except ValueError:
            row = None
        if row is not None and filled + row.size <= expected and _all_finite(row):
            values[filled : filled + row.size] = row
            filled += row.size
            lineno += len(block)
            # Let this block go before the next is read: one block at a time.
            block = row = None
            continue
        for lineno, raw in enumerate(block, start=lineno + 1):
            line = raw.strip()
            if line.startswith("#"):
                continue
            for tok in line.split():
                try:
                    val = float(tok)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: could not parse {tok!r} as a real number"
                    ) from None
                if not math.isfinite(val):
                    raise ValueError(f"{path}: line {lineno}: non-finite value {tok!r}")
                if filled == expected:
                    raise ValueError(f"{path}: line {lineno}: more than {expected} values")
                values[filled] = val
                filled += 1
    return filled, lineno


def _skip_lines(fb, n: int) -> int:
    """Move the binary handle ``fb`` past ``n`` lines, ended as text mode
    ends them (LF, CR LF or a lone CR); return its offset."""
    pos = fb.tell()
    while n > 0 and (raw := fb.readline()):
        lines = raw.splitlines(keepends=True)[:n]
        n, pos = n - len(lines), pos + sum(map(len, lines))
    fb.seek(pos)
    return pos


def _body_split(path: str, fh, lineno: int):
    """``(lines, offset)``: the body's first ``lines`` lines, whole blocks
    ending at byte ``offset``, at or past the body's middle byte.  None,
    for a one-process read, unless ``fh`` is a regular file whose body of
    ``_PARALLEL_MIN_BYTES`` or more runs on past them, and the OS can fork
    with two CPUs free for this process.
    """
    if not (_CAN_FORK and len(os.sched_getaffinity(0)) >= 2
            and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)):
        return None
    with open(path, "rb") as fb:
        size = os.fstat(fb.fileno()).st_size
        body = _skip_lines(fb, lineno)
        if size - body < _PARALLEL_MIN_BYTES:
            return None
        lines, mid = 0, (body + size) // 2
        while fb.tell() < mid:
            # Each chunk ends with a whole line, so no CR LF straddles two.
            chunk = fb.read(min(mid - fb.tell(), 1 << 16)) + fb.readline()
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        pad = -lines % _BLOCK_LINES
        offset = _skip_lines(fb, pad)
    return (lines + pad, offset) if body < offset < size else None


def _read_halves(path: str, fh, values: np.ndarray, lineno: int, lines: int, offset: int):
    """Parse the next ``lines`` lines of ``fh`` here and the body from byte
    ``offset`` in a forked child.  Returns ``filled, lineno`` and what is
    left to read: nothing if the child's values fill ``values``, else the
    rest of ``fh``, read on as a one-process read would.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork in a process with several threads,
            # as BLAS's idle workers are.  The child only parses text: it
            # makes no BLAS call and takes no lock another thread may hold.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare
        pid = None
    if pid == 0:  # the child ends in os._exit: no cleanup, no stdio flush
        code = 1
        try:
            with _open_text(path, offset) as text:
                count, _ = _read_body(path, text, values, 0, 0)
            with open(write_end, "wb") as out:
                out.write(values[:count])
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with open(read_end, "rb", buffering=0) as inp:
        if pid is None:
            return 0, lineno, fh
        done = False
        try:
            filled, lineno = _read_body(path, itertools.islice(fh, lines), values, 0, lineno)
            tail, got = memoryview(values[filled:]).cast("B"), 0
            while got < len(tail) and (n := inp.readinto(tail[got:])):
                got += n
            done = got == len(tail) and not inp.read(1)
        finally:
            if not done:
                os.kill(pid, signal.SIGKILL)
            done = os.waitpid(pid, 0)[1] == 0 and done
    return (values.size if done else filled), lineno, (() if done else fh)


def read_tensor_file(path: str) -> DenseTensor3:
    """Read a ``t3`` tensor file, passing over each body line once.

    Each block of body lines goes to NumPy's C reader.  A block it refuses
    (ragged rows, a comment or '#', a token only ``float()`` takes), or
    whose values are not finite or run past the header's count, is read
    token by token with ``float()`` instead, which raises at the first bad
    token in file order: parse, then finite, then count.  Both convert
    with CPython's ``PyOS_string_to_double``, so they give the same values.

    A large body is read in two processes (:func:`_body_split`): a forked
    child parses the blocks after the split exactly as this process would
    and sends back their values.  If the child fails, or its count and this
    process's do not make the header's, this process reads on past the
    split itself, so every value and every message is the one-process read's.
    """
    with _open_text(path) as fh:
        dims, lineno = _read_header(path, fh)
        # A header that no array can hold fails before any of the body is read.
        values = _empty_values(math.prod(dims), f"{path}: line {lineno}")
        filled, rest = 0, fh
        split = _body_split(path, fh, lineno)
        if split is not None:
            filled, lineno, rest = _read_halves(path, fh, values, lineno, *split)
        filled, _ = _read_body(path, rest, values, filled, lineno)
    if filled != values.size:
        raise ValueError(f"{path}: expected {values.size} values, found {filled}")
    return DenseTensor3(values.reshape(dims), _fresh=True)


def _write_numeric_file(path: str, header: str, rows: np.ndarray, comments) -> None:
    # One format string per row, filled from one row at a time: converting
    # the whole array to Python floats at once would multiply peak memory.
    # A row of +0.0 only (every bit zero) is written from one line formatted
    # once, with the same bytes; a -0.0 prints as "-0", so it never does.
    row_format = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    zero_line = row_format % ((0.0,) * rows.shape[1])
    zero_rows = (~rows.view(np.uint64).any(axis=1)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for comment in comments:
            for line in str(comment).splitlines() or [""]:
                fh.write(f"# {line}\n")
        fh.write(header + "\n")
        fh.writelines(
            zero_line if zero else row_format % tuple(row.tolist())
            for row, zero in zip(rows, zero_rows)
        )


def write_tensor_file(path: str, t: DenseTensor3, comments=()) -> None:
    """Write a ``t3`` tensor file (one mode-3 fiber per line, 17 digits)."""
    m1, m2, m3 = t.dims
    _write_numeric_file(path, f"t3 {m1} {m2} {m3}", t.data.reshape(m1 * m2, m3), comments)


def write_matrix_file(path: str, m) -> None:
    """Write an ``m2`` matrix file (one row per line, 17 digits)."""
    arr = _float_array(m)
    _write_numeric_file(path, f"m2 {arr.shape[0]} {arr.shape[1]}", arr, ())


# ---------------------------------------------------------------------------
# shared argument plumbing

def _triple(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated integers, got {text!r}")
    return parts  # type: ignore[return-value]


def _resolve_seed(flag_value: int | None) -> int:
    """The seed from ``--seed``, else ``TAPPROX_SEED``, else the default; never negative."""
    source, value = "--seed", flag_value
    if value is None:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    try:
        seed = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    return _seed(seed, source)


# ---------------------------------------------------------------------------
# subcommands

def cmd_info(args: argparse.Namespace) -> int:
    t = read_tensor_file(args.file)
    norm = _checked_norm(t)
    sys.stdout.write(_report_text([
        ("command", "info"),
        ("dims", _fmt_dims(t.dims)),
        ("values", str(t.size)),
        ("hs_norm", _fmt_float(norm)),
        ("multilinear_rank", _fmt_dims(multilinear_rank(t))),
    ]))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    dims, mlrank = _three_positive_ints(args.dims, "dims"), args.mlrank
    _check_ranks(dims, mlrank, "mlrank")
    if max(mlrank) ** 2 > math.prod(mlrank):
        raise ValueError(f"mlrank {mlrank}: no rank may exceed the product of the other two")
    _tolerance(args.noise, "noise standard deviation")
    # Refuse dims that no array can hold before drawing anything.
    _empty_values(math.prod(dims), f"dims {_fmt_dims(dims)}")
    seed = _resolve_seed(args.seed)

    rng = np.random.default_rng(seed)
    core = rng.standard_normal(mlrank)
    qs = [np.linalg.qr(rng.standard_normal((m, k)))[0] for m, k in zip(dims, mlrank)]
    data = _multilinear(core, qs)
    if args.noise > 0.0:
        # An entry that overflows fails DenseTensor3's finite-entry rule
        # with one line; NumPy's overflow warning would add more.
        with np.errstate(over="ignore"):
            data = data + args.noise * rng.standard_normal(dims)
    t = DenseTensor3(data, _fresh=True)
    norm = _checked_norm(t)

    write_tensor_file(
        args.out,
        t,
        comments=[
            f"random tensor: dims={_fmt_dims(dims)} mlrank={_fmt_dims(mlrank)} "
            f"noise_sigma={_fmt_float(args.noise)} seed={seed}"
        ],
    )
    sys.stdout.write(_report_text([
        ("command", "gen"),
        ("dims", _fmt_dims(dims)),
        ("mlrank", _fmt_dims(mlrank)),
        ("noise_sigma", _fmt_float(args.noise)),
        ("seed", str(seed)),
        ("hs_norm", _fmt_float(norm)),
    ]))
    return 0


def _prepare_bsta(ranks, seed, args):
    opts = BstaOptions(
        target_ranks=ranks,
        max_sweeps=args.max_sweeps,
        rel_tol=args.rel_tol,
        init=args.init,
        seed=seed,
        crit_tol=args.crit_tol,
    )

    def solve(t, norm):
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
        return result, head, tail, f"{result.sweeps} sweeps"

    return solve


def _prepare_flrta(sizes, seed, args):
    opts = FlrtaOptions(sizes, trials=args.trials, seed=seed, pinv_tol=args.pinv_tol)

    def solve(t, norm):
        result = flrta_solve(t, opts)
        sel = result.selection
        conds = sel.chosen_conditions
        head = [
            ("section_sizes", _fmt_dims(opts.section_sizes)),
            ("trials", str(opts.trials)),
            ("seed", str(opts.seed)),
            ("pinv_tol", "auto" if opts.pinv_tol is None else _fmt_float(opts.pinv_tol)),
            ("degenerate", _fmt_bool(result.degenerate)),
            ("i_set", _fmt_ints(sel.i_set)),
            ("j_set", _fmt_ints(sel.j_set)),
            ("k_set", _fmt_ints(sel.k_set)),
            ("cond_outer", _fmt_float(conds.cond_outer)),
            ("cond_slices", _fmt_floats(conds.cond_slices)),
            ("hs_norm", _fmt_float(norm)),
        ]
        return result, head, [], f"{opts.trials} trials"

    return solve


_SEED_FLAG = ("--seed", {"type": int, "default": None})

#: Per method: help summary, what its factor files hold, its flags (in
#: --help order), what its errors call the ranks, the factor-file suffixes,
#: whether the factors are written transposed, and ``prepare(ranks, seed,
#: args)``, which builds the method's options (so every argument rule runs
#: before the tensor is read) and returns the solve step ``solve(t, norm) ->
#: (result, head, tail, work)``: the solver's result, with ``tucker`` and
#: ``approx_error``; the method's report entries before the shared
#: ``error_abs ... storage_ratio`` block and after it; and the effort column
#: of the ``bench`` table.  BSTA writes its frames (m x k); FLRTA writes its
#: sections as factors (k x m).
_METHODS = {
    "bsta": ("best subspace approximation by alternating relaxation", "frames", [
        ("--max-sweeps", {"type": int, "default": BstaOptions.max_sweeps}),
        ("--rel-tol", {"type": float, "default": BstaOptions.rel_tol}),
        ("--init", {"choices": ("hosvd", "random"), "default": BstaOptions.init}),
        _SEED_FLAG,
        ("--crit-tol", {"type": float, "default": BstaOptions.crit_tol}),
    ], "target ranks", (".x.mat", ".y.mat", ".z.mat"), True, _prepare_bsta),
    "flrta": ("fiber-sampling low-rank approximation", "factors", [
        ("--trials", {"type": int, "default": FlrtaOptions.trials}),
        _SEED_FLAG,
        ("--pinv-tol", {"type": float, "default": FlrtaOptions.pinv_tol}),
    ], "section sizes", (".c1.mat", ".c2.mat", ".c3.mat"), False, _prepare_flrta),
}


def _run(args: argparse.Namespace, rows):
    """The run path of ``bsta``, ``flrta`` and ``bench``: solve each ``(method, ranks)`` row.

    Checks every option, then each row's ranks against the header's dims as
    its solver would, then reads the body once.  Returns the tensor and one
    ``(result, head, tail, work, relative error, wall seconds)`` per row.
    """
    seed = _resolve_seed(args.seed)
    solves = [_METHODS[method][-1](ranks, seed, args) for method, ranks in rows]
    if os.path.isfile(args.file):  # a pipe could not be read again
        with _open_text(args.file) as fh:
            dims, _ = _read_header(args.file, fh)
        for method, ranks in rows:
            _check_ranks(dims, ranks, _METHODS[method][3])
    t = read_tensor_file(args.file)
    norm = hs_norm(t)
    runs = []
    for solve in solves:
        start = time.perf_counter()
        result, *entries = solve(t, norm)
        wall = time.perf_counter() - start
        runs.append((result, *entries, result.approx_error / norm if norm > 0.0 else 0.0, wall))
    return t, runs


def cmd_solve(args: argparse.Namespace) -> int:
    """Run ``bsta`` or ``flrta``: check the output prefix, solve, write factors and core, report."""
    *_, suffixes, transposed, _ = _METHODS[args.command]
    prefix = args.out_prefix
    if not os.path.basename(prefix):
        raise ValueError(f"output prefix {prefix!r} names no file; give one, as in 'out/run'")
    if not os.path.isdir(os.path.dirname(prefix) or "."):
        raise ValueError(f"the directory of output prefix {prefix!r} does not exist")
    outputs = [prefix + s for s in (*suffixes, ".core.t3", ".report.txt")]
    if args.json:
        outputs.append(prefix + ".report.json")
    for out in outputs:
        # samefile sees through symlinks and hard links.
        if os.path.exists(out) and os.path.exists(args.file) and os.path.samefile(out, args.file):
            raise ValueError(f"output {out!r} would overwrite the input file {args.file!r}")
    t, [(result, head, tail, _, rel, wall)] = _run(args, [(args.command, (args.p, args.q, args.r))])

    for suffix, factor in zip(suffixes, result.tucker.factors):
        write_matrix_file(prefix + suffix, factor.T if transposed else factor)
    write_tensor_file(prefix + ".core.t3", result.tucker.core)

    stored = result.tucker.storage_count()
    report = [
        ("command", args.command),
        ("dims", _fmt_dims(t.dims)),
        *head,
        ("error_abs", _fmt_float(result.approx_error)),
        ("error_rel", _fmt_float(rel)),
        ("storage_dense", str(t.size)),
        ("storage_factorized", str(stored)),
        ("storage_ratio", _fmt_float(stored / t.size)),
        *tail,
    ]
    text = _report_text(report)
    sys.stdout.write(text)
    with open(prefix + ".report.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.json:
        with open(prefix + ".report.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(report), indent=2) + "\n")
    print(f"wall_time_s={wall:.6f}", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows = [(method, ranks) for ranks in args.ranks for method in _METHODS]
    t, runs = _run(args, rows)
    print(
        f"{'method':<8}{'ranks':<12}{'rel_error':<18}{'degenerate':<12}{'work':<14}"
        f"{'storage':<12}{'wall_s':<10}"
    )
    for (method, ranks), (result, head, _, work, rel, wall) in zip(rows, runs):
        # FLRTA's report entry; BSTA selects no indices, so its rows read "-".
        degenerate = dict(head).get("degenerate", "-")
        ratio = result.tucker.storage_count() / t.size
        print(
            f"{method:<8}{_fmt_dims(ranks):<12}{rel:<18.9e}{degenerate:<12}{work:<14}"
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

    # bsta and flrta share FILE P Q R OUT_PREFIX and --json.
    for command, (summary, written, options, *_) in _METHODS.items():
        p_solve = sub.add_parser(command, help=summary)
        p_solve.add_argument("file", help="tensor file (t3 format)")
        for name in ("p", "q", "r"):
            p_solve.add_argument(name, type=int)
        p_solve.add_argument("out_prefix", help=f"prefix for {written}, core and report files")
        for flag, kwargs in options:
            p_solve.add_argument(flag, **kwargs)
        p_solve.add_argument("--json", action="store_true", help="also write a JSON report")
        p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="compare both methods over a list of ranks")
    p_bench.add_argument("file", help="tensor file (t3 format)")
    p_bench.add_argument("ranks", type=_triple, nargs="+", metavar="P,Q,R")
    # bench offers --trials and --seed, and runs both methods with the other flags' defaults.
    options = dict(option for _, _, opts, *_ in _METHODS.values() for option in opts)
    for flag in ("--trials", "--seed"):
        p_bench.add_argument(flag, **options.pop(flag))
    p_bench.set_defaults(func=cmd_bench, **{
        flag[2:].replace("-", "_"): kwargs["default"] for flag, kwargs in options.items()
    })

    return parser


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A warning prints as one line, like an error.  The package warns with
    # RuntimeWarnings, shown once per message as by default; the filter and
    # the printer are restored on return, so library callers never see them.
    with warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, OSError, RuntimeError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
