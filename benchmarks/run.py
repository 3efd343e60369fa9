"""Benchmark for tapprox: one workload per process, BLAS pinned to one thread.

    python3 benchmarks/run.py --workload cli_text --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up makes the inputs from ``--seed``; timed passes then repeat until
``--seconds`` is used up, and every pass's outputs are checked.  The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine, the per-case results and the quality figures.  With
``--trace 1`` half the time runs untraced and half with span wrappers
installed, the per-layer metrics are reported, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.  See ``README.md`` here.
"""
from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before NumPy is imported anywhere.
THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("cli_text", "bsta_init", "bsta_stall")
SETUP_REPEATS = 3
MIN_PASSES = 3  # untraced run; a traced run makes at least 2 of each kind
COLD_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import tapprox"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bsta_error_rel", "ratio"),
)

# (metric, unit, span name that must be traced for the metric to exist)
PER_LAYER = (
    ("cli.read_tensor_file.s", "s", "cli.read_tensor_file"),
    ("cli.read_tensor_file.calls", "count", "cli.read_tensor_file"),
    ("cli.read_tensor_file.bytes", "bytes", "cli.read_tensor_file"),
    ("cli.write_tensor_file.s", "s", "cli.write_tensor_file"),
    ("cli.write_tensor_file.bytes", "bytes", "cli.write_tensor_file"),
    ("cli.write_matrix_file.s", "s", "cli.write_matrix_file"),
    ("cli.write_matrix_file.bytes", "bytes", "cli.write_matrix_file"),
    ("cli.main.s", "s", "cli.main"),
    ("bsta.hosvd_init.s", "s", "bsta.hosvd_init"),
    ("bsta.hosvd_init.self_s", "s", "bsta.hosvd_init"),
    ("tensor_core.unfold.s", "s", "tensor_core.unfold"),
    ("tensor_core.unfold.calls", "count", "tensor_core.unfold"),
    ("bsta.relaxation_sweep.s", "s", "bsta.relaxation_sweep"),
    ("bsta.relaxation_sweep.calls", "count", "bsta.relaxation_sweep"),
    ("bsta.projected_operator.s", "s", "bsta.projected_operator"),
    ("bsta.projected_operator.calls", "count", "bsta.projected_operator"),
    ("subspace.Subspace.s", "s", "subspace.Subspace"),
    ("subspace.Subspace.calls", "count", "subspace.Subspace"),
    ("bsta.verify_critical_point.s", "s", "bsta.verify_critical_point"),
    ("bsta.verify_critical_point.calls", "count", "bsta.verify_critical_point"),
    ("bsta.bsta_solve.s", "s", "bsta.bsta_solve"),
    ("bsta.bsta_solve.self_s", "s", "bsta.bsta_solve"),
    ("bsta.sweeps", "count", "bsta.bsta_solve"),
    ("bsta.stop_max_sweeps", "count", "bsta.bsta_solve"),
    ("bsta.certified_frac", "ratio", None),
    ("subspace.coefficient_tensor.s", "s", "subspace.coefficient_tensor"),
    ("subspace.project.s", "s", "subspace.project"),
    ("tensor_core.DenseTensor3.s", "s", "tensor_core.DenseTensor3"),
    ("tensor_core.DenseTensor3.calls", "count", "tensor_core.DenseTensor3"),
    ("flrta.select_indices.s", "s", "flrta.select_indices"),
    ("flrta.select_indices.trials", "count", "flrta.select_indices"),
    ("flrta.select_indices.finite_frac", "ratio", "flrta.select_indices"),
    ("flrta.flrta_approx.s", "s", "flrta.flrta_approx"),
    ("flrta.TuckerFactorization.reconstruct.s", "s", "flrta.TuckerFactorization.reconstruct"),
    ("flrta.core_scalars", "count", "flrta.flrta_approx"),
    ("flrta.error_rel", "ratio", None),
    ("flrta.storage_ratio", "ratio", None),
    ("trace_overhead_s", "s", None),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def llc_bytes():
    """Last-level cache size as the C library reports it, or None."""
    try:
        done = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        return int(done.stdout.strip()) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_info():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    llc = llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "llc_mb": None if llc is None else llc / 2**20,
    }


def time_cold_import() -> float:
    """Seconds for a fresh interpreter to start, import tapprox and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_IMPORT, SRC], check=True, timeout=120)
    return time.perf_counter() - start


class Calibration:
    """A fixed kernel timed beside the program, to track the machine's speed.

    Other tenants of a shared host slow every process on it, by up to 1.8x
    for minutes at a time, and by different factors for interpreter-bound
    and BLAS-bound work.  Each workload therefore brings a kernel of the
    same kind of work as its own hot path, written with NumPy alone, so a
    change to ``tapprox`` cannot change it.  ``scale(raw, cal)`` turns a
    time measured beside a kernel run of ``cal`` seconds into seconds at the
    speed where the kernel takes ``ref_s``.
    """

    def __init__(self, kernel) -> None:
        self._work, self.ref_s = kernel

    def sample(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def scale(self, raw: float, cal: float) -> float:
        return raw * self.ref_s / cal

    def median_pass(self, walls, cals) -> float:
        """Median pass time in seconds at the reference speed."""
        return median([self.scale(w, c) for w, c in zip(walls, cals)])


def timed_passes(workload, state, seconds, min_passes, cal, tracer=None):
    """Repeat passes while the next one is expected to end within ``seconds``.

    The calibration kernel runs before every pass and after the last; each
    pass is paired with the mean of the kernel times on either side of it.
    Returns the raw pass times, the paired kernel times, all outcomes and
    the outcomes of each pass.
    """
    walls, cals, outcomes, per_pass = [], [cal.sample()], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or (time.perf_counter() - start) + median(walls) <= seconds:
        if tracer is not None:
            tracer.run_id = len(walls)
        t0 = time.perf_counter()
        outs = workload.run_pass(state)
        walls.append(time.perf_counter() - t0)
        cals.append(cal.sample())
        workload.check(state, outs)
        for out in outs:
            out.result = None
        outcomes.extend(outs)
        per_pass.append(outs)
    paired = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    return walls, paired, outcomes, per_pass


def quality(outcomes):
    """Quality figures over the cases of one or more passes (None where no case has one)."""
    bsta = [o for o in outcomes if o.kind == "bsta"]

    def med(kind, attr):
        values = [getattr(o, attr) for o in outcomes if o.kind == kind]
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    return {
        "bsta_error_rel": med("bsta", "error_rel"),
        "bsta_certified_frac": sum(o.converged for o in bsta) / len(bsta) if bsta else None,
        "flrta_error_rel": med("flrta", "error_rel"),
        "flrta_storage_ratio": med("flrta", "storage_ratio"),
        "fail_frac": sum(bool(o.failures) for o in outcomes) / len(outcomes),
    }


def layer_metrics(tracer, run_id, outs, installed):
    """Per-layer metrics of one traced pass, leaving out absent layers.

    ``<layer>.s``, ``.self_s`` and ``.calls`` come from the spans; the
    other names are counters recorded at layer boundaries, or quality
    figures of the pass's cases.
    """
    totals = tracer.layer_totals(run_id)
    counters = tracer.counters[run_id]
    q = quality(outs)
    trials = counters.get("flrta.select_indices.trials", 0.0)
    derived = {
        "bsta.certified_frac": q["bsta_certified_frac"] or 0.0,
        "flrta.error_rel": q["flrta_error_rel"] or 0.0,
        "flrta.storage_ratio": q["flrta_storage_ratio"] or 0.0,
        "flrta.select_indices.finite_frac": (
            counters.get("flrta.select_indices.finite_trials", 0.0) / trials if trials else 0.0
        ),
    }
    values = {}
    for name, _unit, layer in PER_LAYER:
        if name == "trace_overhead_s" or (layer is not None and layer not in installed):
            continue
        prefix, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif prefix == layer and field in ("s", "self_s", "calls"):
            values[name] = float(totals[layer][field]) if layer in totals else 0.0
        else:
            values[name] = counters.get(name, 0.0)
    return values


def run(args):
    import tapprox
    import tracing
    import workloads

    if not os.path.abspath(tapprox.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"imported tapprox from {tapprox.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        setup_cal = Calibration(workloads.text_kernel())
        cal = Calibration(workload.calibration_kernel())
        import_times, input_times, setup_cals = [], [], []
        for _ in range(SETUP_REPEATS):
            setup_cals.append(setup_cal.sample())
            import_times.append(time_cold_import())
            state = None  # free the previous inputs before building new ones
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            input_times.append(time.perf_counter() - t0)
        setup_raw = median(import_times) + median(input_times)
        setup_s = setup_cal.scale(setup_raw, median(setup_cals))

        problems = []
        if args.trace:
            half = args.seconds / 2
            walls, cals, outcomes, _ = timed_passes(workload, state, half, 2, cal)
            tracer = tracing.Tracer()
            installed, uninstall = tracing.install(tracer)
            try:
                traced_walls, traced_cals, traced_outcomes, traced_passes = timed_passes(
                    workload, state, half, 2, cal, tracer
                )
            finally:
                uninstall()
            outcomes = outcomes + traced_outcomes
        else:
            walls, cals, outcomes, _ = timed_passes(workload, state, args.seconds, MIN_PASSES, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.final_check(state, outcomes)

        info = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_info(),
            "largest_input_mb": workload.largest_input_bytes(state) / 2**20,
            "setup_import_s": import_times,
            "setup_inputs_s": input_times,
            "setup_calibration_s": setup_cals,
            "setup_raw_s": setup_raw,
            "pass_wall_s": walls,
            "pass_calibration_s": cals,
            "wall_raw_min_s": min(walls),
            "wall_raw_median_s": median(walls),
            "cases": {},
        }
        for out in outcomes:
            case = info["cases"].setdefault(out.label, {"runs": 0, "failed": 0})
            case["runs"] += 1
            case["failed"] += bool(out.failures)
            case["error_rel"] = out.error_rel
            if out.kind == "bsta":
                case.update(sweeps=out.sweeps, converged=out.converged)
            for why in out.failures:
                problems.append(f"{out.label}: {why}")
        info["quality"] = quality(outcomes)

        metrics = {
            "wall_s": cal.median_pass(walls, cals),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "bsta_error_rel": info["quality"]["bsta_error_rel"] or 0.0,
        }
        units = dict(END_TO_END)
        if args.trace:
            per_pass = [
                layer_metrics(tracer, i, outs, installed) for i, outs in enumerate(traced_passes)
            ]
            metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
            metrics["trace_overhead_s"] = (
                cal.median_pass(traced_walls, traced_cals) - cal.median_pass(walls, cals)
            )
            units = {name: unit for name, unit, _ in PER_LAYER}
            absent = sorted({layer for _, _, layer in PER_LAYER if layer and layer not in installed})
            for name, _, _ in PER_LAYER:
                metrics.setdefault(name, 0.0)
            totals = [tracer.layer_totals(i) for i in range(len(traced_passes))]
            for layer in workload.expected_layers:
                if layer in installed and any(t.get(layer, {}).get("calls", 0) == 0 for t in totals):
                    problems.append(f"traced layer {layer} was never called")
            info.update(
                traced_pass_wall_s=traced_walls,
                traced_pass_calibration_s=traced_cals,
                absent_layers=absent,
                wrapped_layers=installed,
            )
            trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(
                    {"info": info, "metrics": metrics, "spans": tracer.span_records()}, fh
                )
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in problems:
        print(f"check failed: {why}", file=sys.stderr)
    failed = sum(bool(o.failures) for o in outcomes)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tapprox", "__init__.py")):
        print(f"error: no tapprox sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
