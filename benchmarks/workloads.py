"""The three benchmark workloads: inputs, one timed pass, and output checks.

Inputs are made from the workload seed alone.  A pass calls the program
through the module attribute (``tapprox.bsta_solve``, ``tapprox.cli.main``)
at call time, so a traced run sees the wrappers :mod:`tracing` installs.
Each case of a pass yields one :class:`Outcome`; checks run outside the
timed region and mark an outcome failed with the reason.
"""
from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import tapprox
import tapprox.cli

#: Tolerance for frames being orthonormal, per entry of ``F^T F - I``.
ORTHO_TOL = 1e-10
#: Largest allowed objective drop between mode updates, times ``|t|^2``.
MONOTONE_RTOL = 1e-12
#: ``|error^2 + objective - |t|^2| <= PYTHAGORAS_RTOL * |t|^2``.
PYTHAGORAS_RTOL = 1e-9
#: Reported and recomputed errors agree to ``ERROR_RTOL * |t|``.
ERROR_RTOL = 1e-9


@dataclass
class Outcome:
    """One case of one pass: what the program returned and whether it checked out."""

    kind: str  # "bsta" or "flrta"
    label: str
    error_rel: float | None = None
    storage_ratio: float | None = None  # FLRTA only
    sweeps: int = 0
    converged: bool = False
    failures: list[str] = field(default_factory=list)
    result: object = field(default=None, repr=False)  # library result, read by check()

    def fail(self, why: str) -> None:
        self.failures.append(why)


def tucker_tensor(rng, dims, ranks, sigma) -> np.ndarray:
    """Random multilinear-rank ``ranks`` tensor plus Gaussian noise ``sigma``.

    The core is scaled to norm ``sqrt(p*q*r)`` (its expected norm) so the
    signal-to-noise ratio, and with it the attainable error, is the same
    for every seed.  Noise is added one slab at a time to keep set-up
    memory below the solver's.
    """
    core = rng.standard_normal(ranks)
    core *= np.sqrt(core.size) / np.linalg.norm(core)
    frames = [np.linalg.qr(rng.standard_normal((m, k)))[0] for m, k in zip(dims, ranks)]
    data = np.einsum("abc,ia,jb,kc->ijk", core, *frames, optimize=True)
    for slab in data:
        slab += sigma * rng.standard_normal(slab.shape)
    return data


def write_t3(path: str, data: np.ndarray) -> None:
    """Write a ``t3`` text file: header, then one mode-3 fiber per line, 17 digits."""
    m1, m2, m3 = data.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t3 {m1} {m2} {m3}\n")
        np.savetxt(fh, data.reshape(m1 * m2, m3), fmt="%.17g")


def read_numeric_text(path: str) -> np.ndarray:
    """Independent reader for ``t3``/``m2`` files, used only to check outputs."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    dims = tuple(int(tok) for tok in lines[0].split()[1:])
    return np.array(" ".join(lines[1:]).split(), dtype=np.float64).reshape(dims)


def text_kernel():
    """Calibration kernel: parse and re-format 40000 decimal strings twice.

    This is the work of the ``t3`` reader and writer, and of interpreter
    start-up.  Returns the kernel and its time on the reference machine.
    """
    text = " ".join(repr(v) for v in np.random.default_rng(20081).standard_normal(40_000).tolist())

    def work():
        for _ in range(2):
            " ".join(f"{v:.17g}" for v in [float(tok) for tok in text.split()])

    return work, 0.095


def check_frames(out: Outcome, frames) -> None:
    for frame in frames:
        k = frame.shape[1]
        defect = float(np.max(np.abs(frame.T @ frame - np.eye(k))))
        if defect > ORTHO_TOL:
            out.fail(f"frame {frame.shape} not orthonormal (defect {defect:.3e})")


def check_bsta_numbers(out: Outcome, history, error, norm_sq) -> None:
    """Criterion 3 (monotone ascent) and the Pythagoras identity."""
    drops = np.diff(np.asarray(history))
    if drops.size and drops.min() < -MONOTONE_RTOL * norm_sq:
        out.fail(f"objective decreased by {-drops.min():.3e}")
    gap = abs(error**2 + history[-1] - norm_sq)
    if gap > PYTHAGORAS_RTOL * norm_sq:
        out.fail(f"error^2 + objective differs from |t|^2 by {gap:.3e}")


class Workload:
    name = ""
    #: Span names that must be called in a traced pass (when they exist).
    expected_layers: tuple[str, ...] = ()

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def calibration_kernel(self):
        """NumPy-only work like this workload's hot path, and its reference time."""
        raise NotImplementedError

    def run_pass(self, state) -> list[Outcome]:
        raise NotImplementedError

    def check(self, state, outcomes: list[Outcome]) -> None:
        """Cheap checks after every pass."""

    def final_check(self, state, outcomes: list[Outcome]) -> None:
        """Costly checks, run once after the peak memory has been read."""

    def largest_input_bytes(self, state) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# library solves (bsta_init, bsta_stall)

@dataclass
class SolveCase:
    label: str
    tensor: object  # tapprox.DenseTensor3
    ranks: tuple[int, int, int]
    norm_sq: float
    expect_certified: bool


class BstaWorkload(Workload):
    def cases(self, rng) -> list[SolveCase]:
        raise NotImplementedError

    def setup(self, seed, workdir):
        return self.cases(np.random.default_rng(seed))

    def run_pass(self, cases):
        outs = []
        for case in cases:
            out = Outcome("bsta", case.label)
            try:
                result = tapprox.bsta_solve(
                    case.tensor, tapprox.BstaOptions(target_ranks=case.ranks)
                )
            except Exception as exc:  # a case that raises counts as failed
                out.fail(f"raised {type(exc).__name__}: {exc}")
            else:
                out.result = result
            outs.append(out)
        return outs

    def check(self, cases, outcomes):
        for case, out in zip(cases, outcomes):
            result = out.result
            if result is None:
                continue
            s = result.subspaces
            out.error_rel = result.approx_error / np.sqrt(case.norm_sq)
            out.sweeps = result.sweeps
            out.converged = bool(result.converged)
            check_bsta_numbers(out, result.objective_history, result.approx_error, case.norm_sq)
            check_frames(out, (s.x.frame, s.y.frame, s.z.frame))
            if case.expect_certified and not result.converged:
                out.fail("low-rank case not certified (converged=false)")

    def largest_input_bytes(self, cases):
        return max(c.tensor.data.nbytes for c in cases)


def _solve_case(label, data, ranks, expect_certified) -> SolveCase:
    t = tapprox.DenseTensor3(data)
    flat = t.data.ravel()
    return SolveCase(label, t, ranks, float(flat @ flat), expect_certified)


class BstaInit(BstaWorkload):
    """200^3 Tucker tensor of rank 10 plus 1e-4 noise: HOSVD init dominates."""

    name = "bsta_init"
    expected_layers = (
        "bsta.bsta_solve",
        "bsta.hosvd_init",
        "tensor_core.unfold",
        "subspace.coefficient_tensor",
        "subspace.project",
        "tensor_core.DenseTensor3",
    )

    def calibration_kernel(self):
        """A thin SVD of a wide matrix, as ``hosvd_init`` does for each mode."""
        wide = np.random.default_rng(20081).standard_normal((100, 8000))
        return (lambda: np.linalg.svd(wide, full_matrices=False)), 0.095

    def cases(self, rng):
        data = tucker_tensor(rng, (200, 200, 200), (10, 10, 10), 1e-4)
        return [_solve_case("tucker200", data, (10, 10, 10), True)]


class BstaStall(BstaWorkload):
    """Gaussian tensors that run the sweep loop to its 200-sweep cap."""

    name = "bsta_stall"
    expected_layers = (
        "bsta.bsta_solve",
        "bsta.relaxation_sweep",
        "bsta.projected_operator",
        "subspace.Subspace",
        "bsta.verify_critical_point",
    )

    def calibration_kernel(self):
        """100 small projected-operator SVDs, as the sweep loop does, then a
        tall Gram matrix, as the certificate does (about a fifth of the time)."""
        rng = np.random.default_rng(20081)
        cube = rng.standard_normal((60, 60, 60))
        frame = np.linalg.qr(rng.standard_normal((60, 6)))[0]
        tall = rng.standard_normal((2500, 16))

        def work():
            for _ in range(100):
                m = np.einsum("ijk,jb,kc->ibc", cube, frame, frame, optimize=True)
                np.linalg.svd(m.reshape(60, -1), full_matrices=False)
            np.linalg.norm(tall @ tall.T)

        return work, 0.09

    def cases(self, rng):
        cube = rng.standard_normal((60, 60, 60))
        tall = rng.standard_normal((6000, 8, 8))
        return [
            _solve_case("gauss60", cube, (6, 6, 6), False),
            _solve_case("gauss6000x8x8", tall, (4, 4, 4), False),
        ]


# ---------------------------------------------------------------------------
# the command line on a text file (cli_text)

@dataclass
class CliState:
    seed: int
    data: np.ndarray
    norm: float
    tensor_path: str
    workdir: str
    first_reports: dict = field(default_factory=dict)
    first_hashes: dict = field(default_factory=dict)


COMMANDS = ("bsta", "flrta")
ARTIFACTS = {
    "bsta": (".x.mat", ".y.mat", ".z.mat", ".core.t3", ".report.txt"),
    "flrta": (".c1.mat", ".c2.mat", ".c3.mat", ".core.t3", ".report.txt"),
}
CLI_RANKS = ("10", "10", "10")


def _parse_report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliText(Workload):
    """100^3 rank-10 tensor as a t3 text file; `tapprox bsta` and `tapprox flrta` in-process."""

    name = "cli_text"
    expected_layers = (
        "cli.main",
        "cli.read_tensor_file",
        "cli.write_tensor_file",
        "cli.write_matrix_file",
        "bsta.bsta_solve",
        "flrta.select_indices",
        "flrta.flrta_approx",
        "flrta.TuckerFactorization.reconstruct",
    )

    def setup(self, seed, workdir):
        data = tucker_tensor(np.random.default_rng(seed), (100, 100, 100), (10, 10, 10), 1e-3)
        path = os.path.join(workdir, "input.t3")
        write_t3(path, data)
        return CliState(seed, data, float(np.linalg.norm(data)), path, workdir)

    def calibration_kernel(self):
        return text_kernel()

    def _prefix(self, st: CliState, cmd: str) -> str:
        return os.path.join(st.workdir, cmd)

    def run_pass(self, st):
        outs = []
        for cmd in COMMANDS:
            out = Outcome(cmd, f"cli {cmd}")
            argv = [cmd, st.tensor_path, *CLI_RANKS, self._prefix(st, cmd), "--seed", str(st.seed)]
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = tapprox.cli.main(argv)
            except Exception as exc:  # a case that raises counts as failed
                out.fail(f"raised {type(exc).__name__}: {exc}")
            else:
                if code != 0:
                    out.fail(f"exit code {code}")
            outs.append(out)
        return outs

    def check(self, st, outcomes):
        for cmd, out in zip(COMMANDS, outcomes):
            if out.failures:
                continue
            prefix = self._prefix(st, cmd)
            hashes = {ext: _sha256(prefix + ext) for ext in ARTIFACTS[cmd]}
            with open(prefix + ".report.txt", encoding="utf-8") as fh:
                report = fh.read()
            # Criterion 8: same flags, seed and input give the same bytes.
            if st.first_reports.setdefault(cmd, report) != report:
                out.fail("report differs from the first pass")
            if st.first_hashes.setdefault(cmd, hashes) != hashes:
                out.fail("written files differ from the first pass")
            rep = _parse_report(report)
            norm = float(rep["hs_norm"])
            out.error_rel = float(rep["error_rel"])
            if cmd == "flrta":
                out.storage_ratio = float(rep["storage_ratio"])
            if abs(norm - st.norm) > ERROR_RTOL * st.norm:
                out.fail(f"hs_norm {norm!r} differs from the input's {st.norm!r}")
            if cmd == "bsta":
                out.sweeps = int(rep["sweeps"])
                out.converged = rep["converged"] == "true"
                history = [float(v) for v in rep["objective_history"].split(",")]
                check_bsta_numbers(out, history, float(rep["error_abs"]), st.norm**2)
                check_frames(out, [read_numeric_text(prefix + e) for e in ARTIFACTS["bsta"][:3]])
                if not out.converged:
                    out.fail("low-rank case not certified (converged=false)")

    def final_check(self, st, outcomes):
        """Recompute each error_abs from the factor and core files written last."""
        last = {out.kind: out for out in outcomes[-len(COMMANDS):]}
        for cmd in COMMANDS:
            out = last[cmd]
            if out.failures:
                continue
            prefix = self._prefix(st, cmd)
            f1, f2, f3 = (read_numeric_text(prefix + e) for e in ARTIFACTS[cmd][:3])
            core = read_numeric_text(prefix + ".core.t3")
            if cmd == "bsta":  # frames are (m, k): coordinates map through their rows
                approx = np.einsum("abc,ia,jb,kc->ijk", core, f1, f2, f3, optimize=True)
            else:  # factors are (k, m)
                approx = np.einsum("abc,ai,bj,ck->ijk", core, f1, f2, f3, optimize=True)
            recomputed = float(np.linalg.norm(st.data - approx))
            with open(prefix + ".report.txt", encoding="utf-8") as fh:
                reported = float(_parse_report(fh.read())["error_abs"])
            if abs(recomputed - reported) > ERROR_RTOL * st.norm:
                out.fail(f"error_abs {reported!r} but the written files give {recomputed!r}")

    def largest_input_bytes(self, st):
        return st.data.nbytes


WORKLOADS = {w.name: w for w in (CliText(), BstaInit(), BstaStall())}
