import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import tapprox
from tapprox import DenseTensor3, hs_norm, multilinear_rank
from tapprox.cli import (
    DEFAULT_SEED,
    main,
    read_matrix_file,
    read_tensor_file,
    write_matrix_file,
    write_tensor_file,
)

from helpers import random_tensor, tucker_tensor


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("TAPPROX_SEED", raising=False)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_dict(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.strip().splitlines())


# ---------------------------------------------------------------------------
# tensor / matrix files

def test_tensor_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(120)
    t = random_tensor(rng, (4, 3, 5))
    path = tmp_path / "t.t3"
    write_tensor_file(str(path), t, comments=["round trip"])
    back = read_tensor_file(str(path))
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)


def test_tensor_file_accepts_comments_and_free_layout(tmp_path):
    path = tmp_path / "t.t3"
    path.write_text(
        "# a comment\n"
        "\n"
        "t3 2 2 2\n"
        "1 2 3\n"
        "# interior comment\n"
        "4\n"
        "5 6 7 8\n",
        encoding="utf-8",
    )
    t = read_tensor_file(str(path))
    assert np.array_equal(t.data.ravel(), np.arange(1.0, 9.0))


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("m3 2 2 2\n1 2 3 4 5 6 7 8\n", "line 1"),
        ("t3 2 2\n1 2 3 4\n", "line 1"),
        ("t3 2 0 2\n", "line 1"),
        ("t3 2 2 2\n1 2 three 4 5 6 7 8\n", "line 2"),
        ("t3 2 2 2\n1 2 nan 4 5 6 7 8\n", "non-finite"),
        ("t3 2 2 2\n1 2 3 4 5 6 7 8 9\n", "more than 8"),
        ("t3 2 2 2\n1 2 3\n", "expected 8 values, found 3"),
        ("# only a comment\n", "missing"),
        # the first offending token in file order names the error
        ("t3 2 2 2\n1 nan three 4 5 6 7 8\n", "line 2: non-finite value 'nan'"),
        ("t3 2 2 2\n1 2 3 4 5 6 7 8 9 x\n", "line 2: more than 8 values"),
        ("t3 2 2 2\n1 2 3 1e999 5 6 7 8\n", "line 2: non-finite value '1e999'"),
        # the count is first exceeded on line 3
        ("t3 2 2 2\n1 2 3 4 5\n6 7 8 9 10\n", "line 3: more than 8 values"),
        # comment and blank lines count as lines
        ("t3 2 2 2\n1 2 3\n# note\n\n4 x 6 7 8\n", "line 5: could not parse 'x' as a real number"),
        ("t3 2 2 2\r\n1 2 3 4\r\n5 six 7 8\r\n", "line 3: could not parse 'six' as a real number"),
        ("t3 2 2 2\n1 2 3 4 5 6 7\n", "expected 8 values, found 7"),
        ("t3 2 2 2\n1\n2 3 4 5 6\n7 inf\n", "line 4: non-finite value 'inf'"),
    ],
)
def test_tensor_file_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.t3"
    path.write_bytes(content.encode("utf-8"))
    with pytest.raises(ValueError, match=fragment):
        read_tensor_file(str(path))


@pytest.mark.parametrize("n", [300_000, 10_000_000])
def test_header_beyond_memory_is_a_one_line_error(tmp_path, capsys, n):
    # n**3 float64 values need more than a 57-bit address space (the first n)
    # or than numpy can index (the second), so the allocation fails at once.
    path = tmp_path / "huge.t3"
    path.write_text(f"t3 {n} {n} {n}\n1 2 3\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, ["info", str(path)])
    assert rc == 1 and out == ""
    assert err == f"error: {path}: line 1: {n**3} values do not fit in memory\n"


@pytest.mark.parametrize(
    "content",
    [
        "t3 2 2 2\n1 2 3 4 5 6 7 8\n",
        "t3 2 2 2\n1\n2 3 4 5 6\n7 8\n",
        "t3 2 2 2\r\n1 2 3 4\r\n5 6 7 8\r\n",
        "t3 2 2 2\n1 2\n\n# between\n3 4 5\n  # indented\n6 7 8",
    ],
)
def test_tensor_file_accepts_any_line_layout(tmp_path, content):
    path = tmp_path / "t.t3"
    path.write_bytes(content.encode("utf-8"))
    assert np.array_equal(read_tensor_file(str(path)).data.ravel(), np.arange(1.0, 9.0))


def test_multi_line_comments_round_trip(tmp_path):
    comments = ["run 1\nnoise 0.1", "single", "crlf\r\nline", ""]
    rng = np.random.default_rng(128)
    t = random_tensor(rng, (2, 3, 2))
    m = rng.standard_normal((3, 2))
    tensor_path, matrix_path = tmp_path / "t.t3", tmp_path / "m.mat"
    write_tensor_file(str(tensor_path), t, comments=comments)
    write_matrix_file(str(matrix_path), m, comments=comments)
    assert np.array_equal(read_tensor_file(str(tensor_path)).data, t.data)
    assert np.array_equal(read_matrix_file(str(matrix_path)), m)
    for path in (tensor_path, matrix_path):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:6] == ["# run 1", "# noise 0.1", "# single", "# crlf", "# line", "# "]


_EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, -1.0 / 3.0,
]


@st.composite
def _finite_tensors(draw):
    dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_VALUES)
    return DenseTensor3(draw(arrays(np.float64, dims, elements=values)))


@settings(max_examples=60, deadline=None)
@given(_finite_tensors())
@example(DenseTensor3(np.full((1, 1, 1), -0.0)))
@example(DenseTensor3(np.array(_EDGE_VALUES[:9]).reshape(1, 3, 3)))
@example(DenseTensor3(np.resize(_EDGE_VALUES, (1, 4, 4))))
def test_file_round_trip_is_bit_exact_and_pins_the_written_digits(tmp_path_factory, t):
    d = tmp_path_factory.mktemp("rt")
    m1, m2, m3 = t.dims
    rows = t.data.reshape(m1 * m2, m3)
    write_tensor_file(str(d / "t.t3"), t)
    write_matrix_file(str(d / "m.mat"), rows)
    back_t = read_tensor_file(str(d / "t.t3"))
    back_m = read_matrix_file(str(d / "m.mat"))
    assert back_t.dims == t.dims
    assert back_t.data.tobytes() == t.data.tobytes()
    assert back_m.tobytes() == np.ascontiguousarray(rows).tobytes()
    expected = [" ".join(f"{v:.17g}" for v in row) for row in rows]
    for name, header in (("t.t3", f"t3 {m1} {m2} {m3}"), ("m.mat", f"m2 {m1 * m2} {m3}")):
        assert (d / name).read_text(encoding="utf-8").splitlines() == [header] + expected


def test_reader_memory_is_linear_in_the_values(tmp_path):
    t = random_tensor(np.random.default_rng(129), (60, 60, 60))
    path = str(tmp_path / "t.t3")
    write_tensor_file(path, t)
    tracemalloc.start()
    try:
        read_tensor_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * t.data.nbytes


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(121)
    m = rng.standard_normal((4, 3))
    path = tmp_path / "m.mat"
    write_matrix_file(str(path), m)
    assert np.array_equal(read_matrix_file(str(path)), m)


# ---------------------------------------------------------------------------
# gen / info

def test_gen_is_deterministic_and_reports(tmp_path, capsys):
    f1, f2 = str(tmp_path / "a.t3"), str(tmp_path / "b.t3")
    rc1, out1, _ = run_cli(capsys, ["gen", f1, "--dims", "5,4,3", "--mlrank", "2,2,2", "--seed", "7"])
    rc2, out2, _ = run_cli(capsys, ["gen", f2, "--dims", "5,4,3", "--mlrank", "2,2,2", "--seed", "7"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert Path(f1).read_text(encoding="utf-8") == Path(f2).read_text(encoding="utf-8")
    rep = report_dict(out1)
    assert rep["command"] == "gen"
    assert rep["dims"] == "5x4x3"
    assert rep["seed"] == "7"


def test_gen_produces_the_requested_multilinear_rank(tmp_path, capsys):
    f = str(tmp_path / "t.t3")
    rc, _, _ = run_cli(capsys, ["gen", f, "--dims", "6,5,4", "--mlrank", "2,3,2", "--seed", "11"])
    assert rc == 0
    t = read_tensor_file(f)
    assert multilinear_rank(t) == (2, 3, 2)


def test_gen_noise_perturbs_the_rank(tmp_path, capsys):
    f = str(tmp_path / "t.t3")
    rc, _, _ = run_cli(
        capsys,
        ["gen", f, "--dims", "5,5,5", "--mlrank", "2,2,2", "--noise", "0.1", "--seed", "3"],
    )
    assert rc == 0
    assert multilinear_rank(read_tensor_file(f)) == (5, 5, 5)


def test_gen_validates_mlrank(tmp_path, capsys):
    out_file = tmp_path / "t.t3"
    base = ["gen", str(out_file), "--dims", "3,3,3"]
    for extra in (
        ["--mlrank", "4,1,1"],
        ["--mlrank", "1,1,1", "--noise", "nan"],
        ["--mlrank", "1,1,1", "--noise", "inf"],
        ["--mlrank", "1,1,1", "--noise", "-1"],
    ):
        rc, out, err = run_cli(capsys, base + extra)
        assert rc == 1, extra
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out_file.exists()


def test_info_reports_rank_and_norm(tmp_path, capsys):
    rng = np.random.default_rng(122)
    t = tucker_tensor(rng, (5, 4, 6), (2, 2, 2))
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, t)
    rc, out, _ = run_cli(capsys, ["info", f])
    assert rc == 0
    rep = report_dict(out)
    assert rep["command"] == "info"
    assert rep["dims"] == "5x4x6"
    assert rep["values"] == "120"
    assert rep["multilinear_rank"] == "2x2x2"
    assert_allclose(float(rep["hs_norm"]), hs_norm(t), rtol=1e-15)


# ---------------------------------------------------------------------------
# bsta command

def test_bsta_command_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(123)
    t = tucker_tensor(rng, (7, 8, 6), (2, 3, 2))
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, t)
    prefix = str(tmp_path / "run")
    rc, out, err = run_cli(capsys, ["bsta", f, "2", "3", "2", prefix, "--json"])
    assert rc == 0
    assert "wall_time_s=" in err

    rep = report_dict(out)
    assert rep["command"] == "bsta"
    assert rep["target_ranks"] == "2x3x2"
    assert rep["converged"] == "true"
    keys = list(rep)
    assert keys[keys.index("sweeps") + 1] == "stop_reason"
    assert rep["stop_reason"] == "gain"
    assert float(rep["error_rel"]) <= 1e-8
    assert float(rep["critical_point_residual"]) <= 1e-6
    # persisted report matches stdout, and never contains timing
    persisted = Path(prefix + ".report.txt").read_text(encoding="utf-8")
    assert persisted == out
    assert "wall" not in persisted
    with open(prefix + ".report.json") as fh:
        loaded = json.load(fh)
    assert list(loaded.items()) == list(rep.items())

    x = read_matrix_file(prefix + ".x.mat")
    y = read_matrix_file(prefix + ".y.mat")
    z = read_matrix_file(prefix + ".z.mat")
    assert x.shape == (7, 2) and y.shape == (8, 3) and z.shape == (6, 2)
    for frame in (x, y, z):
        assert_allclose(frame.T @ frame, np.eye(frame.shape[1]), rtol=0, atol=1e-12)
    core = read_tensor_file(prefix + ".core.t3")
    assert core.dims == (2, 3, 2)
    # frames + core reproduce the tensor
    rec = np.einsum("abc,ia,jb,kc->ijk", core.data, x, y, z)
    assert np.linalg.norm(rec - t.data) <= 1e-7 * hs_norm(t)


def test_bsta_full_ranks_error_is_zero(tmp_path, capsys):
    rng = np.random.default_rng(124)
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(rng, (3, 4, 2)))
    rc, out, _ = run_cli(capsys, ["bsta", f, "3", "4", "2", str(tmp_path / "o")])
    assert rc == 0
    rep = report_dict(out)
    assert float(rep["error_rel"]) <= 1e-12
    assert rep["sweeps"] == "1"


def test_bsta_reports_a_max_sweeps_stop(tmp_path, capsys):
    rng = np.random.default_rng(126)
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(rng, (6, 6, 6)))
    args = ["bsta", f, "2", "2", "2", str(tmp_path / "o"), "--max-sweeps", "1", "--rel-tol", "1e-30"]
    rc, out, _ = run_cli(capsys, args)
    assert rc == 0
    rep = report_dict(out)
    assert rep["sweeps"] == "1"
    assert rep["stop_reason"] == "max_sweeps"
    assert rep["converged"] == "false"


def test_bsta_single_slice_matches_svd(tmp_path, capsys):
    rng = np.random.default_rng(125)
    a = rng.standard_normal((8, 6))
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, DenseTensor3(a[:, :, None]))
    svals = np.linalg.svd(a, compute_uv=False)
    for k in (1, 3):
        rc, out, _ = run_cli(capsys, ["bsta", f, str(k), str(k), "1", str(tmp_path / "o")])
        assert rc == 0
        expected = float(np.sqrt(np.sum(svals[k:] ** 2)))
        assert_allclose(float(report_dict(out)["error_abs"]), expected, rtol=1e-9)


def test_bsta_rejects_bad_ranks(tmp_path, capsys):
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, DenseTensor3(np.zeros((3, 3, 3))))
    rc, _, err = run_cli(capsys, ["bsta", f, "4", "1", "1", str(tmp_path / "o")])
    assert rc == 1
    assert err.startswith("error:") and "\n" == err[err.index("\n") :]


# ---------------------------------------------------------------------------
# flrta command

def test_flrta_command_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(126)
    t = tucker_tensor(rng, (7, 8, 6), (2, 3, 2))
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, t)
    prefix = str(tmp_path / "run")
    rc, out, err = run_cli(capsys, ["flrta", f, "2", "3", "2", prefix, "--seed", "4"])
    assert rc == 0
    assert "wall_time_s=" in err
    rep = report_dict(out)
    assert rep["command"] == "flrta"
    assert rep["degenerate"] == "false"
    assert float(rep["error_rel"]) <= 1e-7
    assert Path(prefix + ".report.txt").read_text(encoding="utf-8") == out

    c1 = read_matrix_file(prefix + ".c1.mat")
    c2 = read_matrix_file(prefix + ".c2.mat")
    c3 = read_matrix_file(prefix + ".c3.mat")
    core = read_tensor_file(prefix + ".core.t3")
    assert c1.shape == (6, 7) and c2.shape == (4, 8) and c3.shape == (6, 6)
    rec = np.einsum("abc,ai,bj,ck->ijk", core.data, c1, c2, c3)
    assert np.linalg.norm(rec - t.data) <= 1e-7 * hs_norm(t)
    # selected index sets are recorded in the report
    assert len(rep["i_set"].split(",")) == 2
    assert len(rep["j_set"].split(",")) == 3
    assert len(rep["k_set"].split(",")) == 2


def test_flrta_zero_tensor_degenerates_gracefully(tmp_path, capsys):
    f = str(tmp_path / "z.t3")
    write_tensor_file(f, DenseTensor3(np.zeros((4, 4, 4))))
    rc, out, err = run_cli(capsys, ["flrta", f, "2", "2", "2", str(tmp_path / "o")])
    assert rc == 0
    assert "warning:" in err
    rep = report_dict(out)
    assert rep["degenerate"] == "true"
    assert rep["error_abs"] == "0"
    assert rep["cond_outer"] == "inf"


def test_flrta_rejects_negative_pinv_tol(tmp_path, capsys):
    f = str(tmp_path / "g.t3")
    rc, _, _ = run_cli(capsys, ["gen", f, "--dims", "5,5,5", "--mlrank", "2,2,2", "--seed", "1"])
    assert rc == 0
    prefix = str(tmp_path / "o")
    for tol in ("-1", "nan"):
        rc, out, err = run_cli(capsys, ["flrta", f, "3", "3", "3", prefix, "--pinv-tol", tol])
        assert rc == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error:") and "pinv" in err
        assert not os.path.exists(prefix + ".report.txt")


def test_flrta_is_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(127)
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(rng, (6, 6, 6)))
    rc1, out1, _ = run_cli(capsys, ["flrta", f, "2", "2", "2", str(tmp_path / "a"), "--seed", "9"])
    rc2, out2, _ = run_cli(capsys, ["flrta", f, "2", "2", "2", str(tmp_path / "b"), "--seed", "9"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert (tmp_path / "a.report.txt").read_text(encoding="utf-8") == (
        tmp_path / "b.report.txt"
    ).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# bench command

def parse_bench(out: str):
    lines = out.strip().splitlines()
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        rows.append(
            {
                "method": tokens[0],
                "ranks": tokens[1],
                "rel_error": float(tokens[2]),
                "storage": float(tokens[-2]),
            }
        )
    return rows


def test_bench_table_and_error_trends(tmp_path, capsys):
    f = str(tmp_path / "t.t3")
    rc, _, _ = run_cli(
        capsys,
        ["gen", f, "--dims", "7,7,7", "--mlrank", "3,3,3", "--noise", "1e-6", "--seed", "42"],
    )
    assert rc == 0
    rc, out, _ = run_cli(
        capsys, ["bench", f, "1,1,1", "2,2,2", "3,3,3", "7,7,7", "--seed", "0"]
    )
    assert rc == 0
    rows = parse_bench(out)
    assert len(rows) == 8
    for method in ("bsta", "flrta"):
        errs = [r["rel_error"] for r in rows if r["method"] == method]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:])), (method, errs)
    by_ranks = {}
    for r in rows:
        by_ranks.setdefault(r["ranks"], {})[r["method"]] = r["rel_error"]
    for ranks, pair in by_ranks.items():
        assert pair["bsta"] <= pair["flrta"] + 1e-9, (ranks, pair)
    # the optimizer nails the noiseless part at the true rank
    assert by_ranks["3x3x3"]["bsta"] <= 1e-4
    assert by_ranks["7x7x7"]["bsta"] <= 1e-12


def test_bench_zero_tensor_runs_with_zero_errors(tmp_path, capsys):
    f = str(tmp_path / "z.t3")
    write_tensor_file(f, DenseTensor3(np.zeros((4, 4, 4))))
    rc, out, err = run_cli(capsys, ["bench", f, "2,2,2"])
    assert rc == 0
    for row in parse_bench(out):
        assert row["rel_error"] == 0.0


# ---------------------------------------------------------------------------
# seeds, exit codes, entry point

def test_env_seed_is_used_and_flag_wins(tmp_path, capsys, monkeypatch):
    fa, fb, fc, fd = (str(tmp_path / n) for n in ("a.t3", "b.t3", "c.t3", "d.t3"))
    args = ["--dims", "4,4,4", "--mlrank", "2,2,2"]
    monkeypatch.setenv("TAPPROX_SEED", "555")
    run_cli(capsys, ["gen", fa] + args)
    monkeypatch.delenv("TAPPROX_SEED")
    run_cli(capsys, ["gen", fb] + args + ["--seed", "555"])
    run_cli(capsys, ["gen", fc] + args)  # default seed
    run_cli(capsys, ["gen", fd] + args + ["--seed", str(DEFAULT_SEED)])
    text = {f: Path(f).read_text(encoding="utf-8") for f in (fa, fb, fc, fd)}
    assert text[fa] == text[fb]
    assert text[fc] == text[fd]
    assert text[fa] != text[fc]


def test_invalid_env_seed_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAPPROX_SEED", "not-a-number")
    rc, _, err = run_cli(
        capsys, ["gen", str(tmp_path / "t.t3"), "--dims", "3,3,3", "--mlrank", "1,1,1"]
    )
    assert rc == 1
    assert "TAPPROX_SEED" in err


def test_missing_file_gives_one_line_diagnostic(capsys):
    rc, out, err = run_cli(capsys, ["info", "/nonexistent/file.t3"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_malformed_triple_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["gen", str(tmp_path / "t.t3"), "--dims", "3,3", "--mlrank", "1,1,1"])
    assert exc_info.value.code == 2


def test_console_entry_point_runs(tmp_path):
    # Run the same package this process imported, installed or not.
    src = os.path.dirname(os.path.dirname(tapprox.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    f = str(tmp_path / "t.t3")
    out = subprocess.run(
        [sys.executable, "-m", "tapprox", "gen", f, "--dims", "3,3,3",
         "--mlrank", "1,1,1", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    info = subprocess.run(
        [sys.executable, "-m", "tapprox", "info", f], capture_output=True, text=True, env=env
    )
    assert info.returncode == 0
    assert "multilinear_rank=1x1x1" in info.stdout
