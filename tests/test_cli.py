import contextlib
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import tapprox
from tapprox import (
    BstaOptions,
    DenseTensor3,
    IndexSelection,
    bsta_solve,
    cli,
    flrta_approx,
    hs_norm,
    multilinear_rank,
    select_indices,
)
from tapprox.cli import (
    DEFAULT_SEED,
    main,
    read_tensor_file,
    write_matrix_file,
    write_tensor_file,
)

from helpers import random_tensor, read_matrix, tucker_tensor


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


def test_non_utf8_bytes_fail_at_their_line_and_may_sit_in_comments(tmp_path, capsys):
    bad = tmp_path / "bad.t3"
    bad.write_bytes(b"t3 1 1 2\n1 \xff\n")
    rc, out, err = run_cli(capsys, ["info", str(bad)])
    assert rc == 1 and out == ""
    assert err == f"error: {bad}: line 2: could not parse '\\\\xff' as a real number\n"
    bad.write_bytes(b"t3 1 \xe91 2\n1 2\n")
    with pytest.raises(ValueError, match="line 1: header dimensions must be integers"):
        read_tensor_file(str(bad))
    ok = tmp_path / "ok.t3"
    ok.write_bytes(b"# caf\xe9 \xff\x80\nt3 1 1 2\n1 2\n")
    assert np.array_equal(read_tensor_file(str(ok)).data.ravel(), [1.0, 2.0])


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
    t = random_tensor(np.random.default_rng(128), (2, 3, 2))
    path = tmp_path / "t.t3"
    write_tensor_file(str(path), t, comments=comments)
    assert np.array_equal(read_tensor_file(str(path)).data, t.data)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:6] == ["# run 1", "# noise 0.1", "# single", "# crlf", "# line", "# "]


@contextlib.contextmanager
def _reader_path(parallel: bool):
    """Force the two-process body read on (wherever the OS can fork) or off.

    A body then splits as soon as it has more than one block of lines,
    whatever its size and the host's CPU count.
    """
    with mock.patch.object(cli, "_PARALLEL_MIN_BYTES", 0 if parallel else math.inf), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        yield


_BOTH_PATHS = (False, True)


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
# Rows of only +0.0 are written from one cached line; -0.0 prints as "-0".
@example(DenseTensor3(np.array([[[0.0, 0.0, 0.0], [1.5, -2.0, 0.1]]])))
@example(DenseTensor3(np.array([[[-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]])))
@example(DenseTensor3(np.array([[[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]], [[0.0] * 3, [-0.0] * 3]])))
@example(DenseTensor3(np.array([[[0.0, 5e-324, 0.0], [0.0, 0.0, 0.0]]])))
def test_file_round_trip_is_bit_exact_and_pins_the_written_digits(tmp_path_factory, t):
    d = tmp_path_factory.mktemp("rt")
    m1, m2, m3 = t.dims
    rows = t.data.reshape(m1 * m2, m3)
    write_tensor_file(str(d / "t.t3"), t)
    write_matrix_file(str(d / "m.mat"), rows)
    back_m = read_matrix(d / "m.mat")
    for parallel in _BOTH_PATHS:
        # On the forced path, one-line blocks let these few lines split.
        block = 1 if parallel else cli._BLOCK_LINES
        with _reader_path(parallel), mock.patch.object(cli, "_BLOCK_LINES", block):
            back_t = read_tensor_file(str(d / "t.t3"))
        assert back_t.dims == t.dims
        assert back_t.data.tobytes() == t.data.tobytes()
    assert back_m.shape == rows.shape
    assert back_m.tobytes() == np.ascontiguousarray(rows).tobytes()
    expected = [" ".join(f"{v:.17g}" for v in row) for row in rows]
    for name, header in (("t.t3", f"t3 {m1} {m2} {m3}"), ("m.mat", f"m2 {m1 * m2} {m3}")):
        assert (d / name).read_text(encoding="utf-8").splitlines() == [header] + expected


def test_writer_holds_one_row_at_a_time(tmp_path):
    # One row's Python floats and a rows-long mask at a time; a whole-array
    # tolist() would hold about 4x the tensor's bytes.  The FLRTA core at
    # sections 10 10 10 is 100^3 whatever the tensor, and 9 in 10 of its
    # rows are zero.
    rng = np.random.default_rng(131)
    small = random_tensor(rng, (12, 12, 12))
    core = flrta_approx(small, select_indices(small, (10, 10, 10), seed=1)).core
    path = str(tmp_path / "t.t3")
    for t in (random_tensor(rng, (60, 60, 60)), core):
        tracemalloc.start()
        try:
            write_tensor_file(path, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * t.data.nbytes, (t.dims, peak / t.data.nbytes)


def test_reader_memory_is_linear_in_the_values(tmp_path):
    t = random_tensor(np.random.default_rng(129), (60, 60, 60))
    path = str(tmp_path / "t.t3")
    write_tensor_file(path, t)
    for parallel in _BOTH_PATHS:
        tracemalloc.start()
        try:
            with _reader_path(parallel):
                read_tensor_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * t.data.nbytes, parallel


def _read_outcome(path):
    """``(shape, bytes)`` of what the public reader returns, or its error message."""
    try:
        arr = read_tensor_file(path).data
        return arr.shape, arr.tobytes()
    except ValueError as exc:
        return str(exc)


def _line_reader_outcome(path):
    """The same outcome with every block read by ``float()``: ``np.loadtxt`` refuses them all."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        return _read_outcome(path)


class _ReaderSpy:
    """What the reader did: whether each ``np.loadtxt`` call refused its
    block, and every token the reader then read with ``float()``."""

    def __init__(self):
        self.refused, self.tokens = [], []
        self._loadtxt = np.loadtxt

    def loadtxt(self, *args, **kwargs):
        try:
            arr = self._loadtxt(*args, **kwargs)
        except ValueError:
            self.refused.append(True)
            raise
        self.refused.append(False)
        return arr

    def float(self, tok):
        self.tokens.append(tok)
        return float(tok)


@contextlib.contextmanager
def _spy_on_reader():
    spy = _ReaderSpy()
    # A module global named float shadows the builtin inside cli only.
    with mock.patch.object(np, "loadtxt", spy.loadtxt), \
            mock.patch.object(cli, "float", spy.float, create=True):
        yield spy


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@st.composite
def _float_files(draw):
    """A t3 file of drawn float64 values, written as %.17g or repr, in rows of any width."""
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    n = math.prod(dims)
    element = (
        st.integers(0, 2**64 - 1).map(_from_bits)
        | st.sampled_from(_EDGE_VALUES)
        | st.floats()
    )
    fmt = draw(st.sampled_from(["{:.17g}", "{!r}"]))
    tokens = [fmt.format(v) for v in draw(st.lists(element, min_size=n, max_size=n))]
    width = draw(st.integers(1, n))
    header = " ".join(map(str, ("t3", *dims)))
    rows = [" ".join(tokens[i : i + width]) for i in range(0, n, width)]
    return "\n".join([header, *rows]) + "\n"


_TRICKY_TOKENS = [
    "1_0", "１", "+.5", "5.", "1e400", "nan", "infinity", "0x10", "1d5", "#",
    "1", "-2.5", "3e-5", "0",
]


@st.composite
def _tricky_files(draw):
    """A t3 file of tricky tokens in rows of one width, with drawn separators and a drawn count."""
    n = draw(st.integers(1, 6))
    count = draw(st.sampled_from([n - 1, n, n, n + 1]))
    tokens = draw(st.lists(st.sampled_from(_TRICKY_TOKENS), min_size=count, max_size=count))
    width = draw(st.integers(1, max(count, 1)))
    inner = draw(st.sampled_from([" ", "\t", "\x0c", "\xa0", " \t "]))
    rows = [inner.join(tokens[i : i + width]) for i in range(0, count, width)]
    breaks = draw(st.lists(
        st.sampled_from(["\n", "\r\n", "\n\n", "\n \t\n"]), min_size=len(rows), max_size=len(rows)
    ))
    return f"t3 1 1 {n}\n" + "".join(row + end for row, end in zip(rows, breaks))


@settings(max_examples=150, deadline=None)
@given(_float_files())
@example("t3 1 1 3\n5e-324 -0 1.7976931348623157e+308\n")
@example("t3 1 1 3\n2.2250738585072009e-308 -1.7976931348623157e308 0.0\n")
def test_reader_matches_the_line_reader_on_float_bit_patterns(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("bits") / "f.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert _read_outcome(path) == _line_reader_outcome(path)


@settings(max_examples=300, deadline=None)
@given(_tricky_files())
@example("t3 1 1 2\n1_0\xa05.\r\n")
@example("t3 1 1 2\n+.5\n\n１\n")
@example("t3 1 1 3\n1 2\n3\n")
def test_reader_matches_the_line_reader_on_tricky_tokens(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tricky") / "f.t3"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(str(path)) == _line_reader_outcome(str(path))


@pytest.mark.parametrize(
    "content",
    [
        "t3 2 2 2\n1 2\n3 4\n5 6\n7 8\n",
        "t3 2 2 2\n1 2 3 4 5 6 7 8",
        "t3 2 2 2\n1\n2\n3\n4\n5\n6\n7\n8\n",
        "# head\n\nt3 2 2 2\n\n1 2 3 4\n\n \t\n5 6 7 8\n\n",
        "t3 2 2 2\r\n1\t2\x0c3\xa04\r\n5 6 7 8\r\n",
    ],
)
def test_equal_rows_without_interior_comments_skip_the_line_reader(tmp_path, content):
    path = tmp_path / "t.t3"
    path.write_bytes(content.encode("utf-8"))
    with warnings.catch_warnings(), _spy_on_reader() as spy:
        warnings.simplefilter("error")
        t = read_tensor_file(str(path))
    assert np.array_equal(t.data.ravel(), np.arange(1.0, 9.0))
    assert spy.refused == [False] and spy.tokens == []


@pytest.mark.parametrize(
    "content,expected,refused",
    [
        pytest.param("t3 1 1 4\n1 2 3\n4\n", [1, 2, 3, 4], True, id="ragged-rows"),
        pytest.param(
            "t3 1 1 4\n# note\n1 2\n3 4\n", [1, 2, 3, 4], True, id="comment-after-header"
        ),
        pytest.param(
            "t3 1 1 4\n1 2 # note\n3 4\n",
            "line 2: could not parse '#' as a real number",
            True,
            id="hash-after-value",
        ),
        pytest.param("t3 1 1 2\n1_0 2\n", [10, 2], True, id="underscore-digits"),
        pytest.param("t3 1 1 2\n１ 2\n", [1, 2], True, id="full-width-digit"),
        pytest.param("t3 1 1 2\n", "expected 2 values, found 0", False, id="empty-body"),
        pytest.param(
            "t3 1 1 2\n1\n2\n3\n", "line 4: more than 2 values", True,
            id="more-rows-than-values",
        ),
        pytest.param(
            "t3 1 1 2\n1 2\n3 4\n", "line 3: more than 2 values", True,
            id="more-values-in-rows",
        ),
        pytest.param(
            "t3 1 1 3\n1 2\n", "expected 3 values, found 2", False, id="too-few-values"
        ),
        pytest.param(
            "t3 1 1 2\n1 1e400\n", "line 2: non-finite value '1e400'", True, id="non-finite"
        ),
    ],
)
def test_reader_falls_back_to_the_line_reader(tmp_path, content, expected, refused):
    path = tmp_path / "t.t3"
    path.write_bytes(content.encode("utf-8"))
    for parallel in _BOTH_PATHS:
        with _reader_path(parallel), _spy_on_reader() as spy:
            if isinstance(expected, str):
                with pytest.raises(ValueError) as err:
                    read_tensor_file(str(path))
                assert str(err.value) == f"{path}: {expected}"
            else:
                assert read_tensor_file(str(path)).data.ravel().tolist() == expected
        # The body is one block: float() reads its tokens only if the C reader
        # refused it, or its values were not finite or ran past the count.
        assert bool(spy.tokens) == refused


_ODD_LINES = ["# note", "", " \t", "x", "1 x", "1e400", "nan 1", "1_0", "１ 2"]


@st.composite
def _block_files(draw):
    """A t3 body of ragged rows, one value short, exact or one over, with
    comment, blank, unparsable and non-finite lines at any position."""
    n = draw(st.integers(1, 8))
    count = draw(st.sampled_from([n - 1, n, n, n + 1]))
    values = draw(st.lists(st.sampled_from(_EDGE_VALUES), min_size=count, max_size=count))
    tokens = [f"{v:.17g}" for v in values]
    rows, i = [], 0
    while i < count:
        width = draw(st.integers(1, 3))
        rows.append(" ".join(tokens[i : i + width]))
        i += width
    for line in draw(st.lists(st.sampled_from(_ODD_LINES), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    return f"t3 1 1 {n}\n" + "".join(row + "\n" for row in rows)


@settings(max_examples=300, deadline=None)
@given(text=_block_files(), block=st.integers(1, 3))
@example(text="t3 1 1 3\n1\n2\n# note\n3\n", block=1)
@example(text="t3 1 1 2\n1\n\n2\n3\n", block=2)
@example(text="t3 1 1 4\n1 2\n3\n4\nnan 1\n", block=3)
def test_blocks_of_any_length_read_as_the_line_reader_does(tmp_path_factory, text, block):
    path = str(tmp_path_factory.mktemp("blocks") / "f.t3")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    # The reference reads the whole body as one block, token by token.
    want = _line_reader_outcome(path)
    with mock.patch.object(cli, "_BLOCK_LINES", block):
        assert _read_outcome(path) == want


def test_bad_token_after_an_accepted_block_names_its_line(tmp_path):
    path = tmp_path / "t.t3"
    path.write_text("# head\nt3 1 1 6\n1\n2\n3\n4 x\n5\n", encoding="utf-8")
    for parallel in _BOTH_PATHS:
        with _reader_path(parallel), mock.patch.object(cli, "_BLOCK_LINES", 2), \
                _spy_on_reader() as spy:
            with pytest.raises(ValueError) as err:
                read_tensor_file(str(path))
        assert str(err.value) == f"{path}: line 6: could not parse 'x' as a real number"
        assert spy.refused == [False, True] and spy.tokens == ["3", "4", "x"]


def test_count_is_exceeded_across_a_block_boundary(tmp_path):
    path = tmp_path / "t.t3"
    # The first block fills the count; the second runs past it.
    path.write_text("t3 1 1 4\n1 2\n3 4\n5 6\n", encoding="utf-8")
    with mock.patch.object(cli, "_BLOCK_LINES", 2), _spy_on_reader() as spy:
        with pytest.raises(ValueError) as err:
            read_tensor_file(str(path))
    assert str(err.value) == f"{path}: line 4: more than 4 values"
    assert spy.refused == [False, False] and spy.tokens == ["5"]


def test_a_late_comment_refuses_only_its_block(tmp_path):
    t = random_tensor(np.random.default_rng(130), (30, 30, 2))
    clean, late = tmp_path / "clean.t3", tmp_path / "late.t3"
    write_tensor_file(str(clean), t)
    late.write_text(clean.read_text(encoding="utf-8") + "# end\n", encoding="utf-8")
    with _spy_on_reader() as spy:
        back = read_tensor_file(str(late))
    assert back.data.tobytes() == read_tensor_file(str(clean)).data.tobytes()
    # 900 body lines span several blocks; only the last, which holds the
    # comment, is read again, and only its own lines.
    assert len(spy.refused) > 1 and spy.refused.count(True) == 1 and spy.refused[-1]
    assert len(spy.tokens) == 2 * (900 % cli._BLOCK_LINES)


def test_empty_body_is_one_error_line_and_no_warning(tmp_path, capsys):
    path = tmp_path / "empty.t3"
    path.write_text("t3 1 1 2\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, ["info", str(path)])
    assert rc == 1 and out == ""
    assert err == f"error: {path}: expected 2 values, found 0\n"


def test_long_body_under_a_short_header_is_refused_in_little_memory(tmp_path):
    # The C reader stops one row past a full body; reading the whole body
    # first would hold all 2e6 rows (an 18 MiB peak).
    path = tmp_path / "long.t3"
    path.write_text("t3 2 2 2\n" + "1\n" * 2_000_000, encoding="utf-8")
    for parallel in _BOTH_PATHS:
        tracemalloc.start()
        try:
            with _reader_path(parallel), pytest.raises(ValueError) as err:
                read_tensor_file(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: line 10: more than 8 values"
        assert peak < 2**20, parallel


_SPLIT_ODD_LINES = [b"# note", b"#", b"", b" \t", b"# \xff", b"1 \xff", b"x", b"1e400"]


@st.composite
def _two_path_files(draw):
    """A t3 file's bytes: comment or blank lines before the header, ragged
    rows holding one value short, exact or one over, comment, blank,
    non-UTF-8 and bad lines anywhere, and each line ended by LF, CR LF or a
    lone CR."""
    n = draw(st.integers(2, 12))
    count = draw(st.sampled_from([n - 1, n, n, n + 1]))
    values = draw(st.lists(st.sampled_from(_EDGE_VALUES), min_size=count, max_size=count))
    tokens = [f"{v:.17g}".encode() for v in values]
    rows, i = [], 0
    while i < count:
        width = draw(st.integers(1, 3))
        rows.append(b" ".join(tokens[i : i + width]))
        i += width
    for line in draw(st.lists(st.sampled_from(_SPLIT_ODD_LINES), max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    head = draw(st.lists(st.sampled_from([b"# head", b""]), max_size=2))
    rows = [*head, b"t3 1 1 %d" % n, *rows]
    ends = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])
    breaks = draw(st.lists(ends, min_size=len(rows), max_size=len(rows)))
    return b"".join(row + end for row, end in zip(rows, breaks))


@settings(max_examples=300, deadline=None)
@given(text=_two_path_files(), block=st.integers(1, 3))
# Where the split falls, with one-line blocks unless a block is given: just
# before a blank line; after a blank line; after a comment line, at the end
# of a ragged row and of a value line; after a lone CR (block 2); under a
# header that a lone CR ends; before a non-UTF-8 byte; under one value too
# few, and with one too many.
@example(text=b"t3 1 1 3\n1\n2\n\n3\n", block=1)
@example(text=b"t3 1 1 3\n1\n\n2\n3\n", block=1)
@example(text=b"t3 1 1 3\n1\n2\n# note\n3\n", block=1)
@example(text=b"t3 1 1 3\n1 2\n# note\n3\n", block=1)
@example(text=b"t3 1 1 9\n1\n2\n3\n4\r5\n6\r7\r8\n9\n", block=2)
@example(text=b"# head\rt3 1 1 3\r1\n2\n3\n", block=1)
@example(text=b"t3 1 1 4\n1 2\n3\n4 \xff\n", block=1)
@example(text=b"t3 1 1 4\n1 2\n3\n", block=1)
@example(text=b"t3 1 1 4\n1 2\n3\n4 5\n", block=1)
@example(text=b"t3 1 1 4\n1 2\n3\n4\n5\n", block=2)
def test_both_read_paths_give_the_same_bits_or_message(tmp_path_factory, text, block):
    path = str(tmp_path_factory.mktemp("paths") / "f.t3")
    with open(path, "wb") as fh:
        fh.write(text)
    outcomes = []
    for parallel in _BOTH_PATHS:
        with _reader_path(parallel), mock.patch.object(cli, "_BLOCK_LINES", block):
            outcomes.append(_read_outcome(path))
            with cli._open_text(path) as fh:
                _, lineno = cli._read_header(path, fh)
                split = cli._body_split(path, fh, lineno)
                if split is not None:
                    # The split ends a whole number of blocks, and the child's
                    # handle reads on from it the lines this one would.
                    lines, offset = split
                    assert lines % block == 0
                    assert len(list(itertools.islice(fh, lines))) == lines
                    with cli._open_text(path, offset) as tail:
                        assert list(tail) == list(fh)
        assert split is None or parallel
    assert outcomes[0] == outcomes[1]


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_needs_fork = pytest.mark.skipif(not cli._CAN_FORK, reason="needs os.fork and os.sched_getaffinity")


@_needs_fork
@pytest.mark.parametrize("bad_line", [None, 100, 300])
def test_a_two_process_read_leaves_no_child(tmp_path, bad_line):
    # 400 body lines split after the first 256-line block.
    t = random_tensor(np.random.default_rng(132), (20, 20, 20))
    path = tmp_path / "t.t3"
    write_tensor_file(str(path), t)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if bad_line is not None:  # a bad token in the parent's half, or the child's
        lines[bad_line] = "x " + lines[bad_line]
        path.write_text("".join(lines), encoding="utf-8")
    with _reader_path(True), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        outcome = _read_outcome(str(path))
    assert fork.call_count == 1
    _assert_no_child_is_left()
    if bad_line is None:
        assert outcome == ((20, 20, 20), t.data.tobytes())
    else:
        assert outcome == f"{path}: line {bad_line + 1}: could not parse 'x' as a real number"


@_needs_fork
@pytest.mark.parametrize("failure", ["raises", "dies", "short", "long"])
def test_a_failed_child_falls_back_silently(tmp_path, capfd, failure):
    t = random_tensor(np.random.default_rng(133), (20, 20, 20))
    path = str(tmp_path / "t.t3")
    write_tensor_file(path, t)
    parent, real_loadtxt = os.getpid(), np.loadtxt

    def loadtxt(*args, **kwargs):
        rows = real_loadtxt(*args, **kwargs)
        if os.getpid() == parent:
            return rows
        if failure == "raises":
            raise RuntimeError("the child fails")
        if failure == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        # The child's count comes out one short, or one over, per block.
        return rows.ravel()[:-1] if failure == "short" else np.append(rows, 0.0)

    with _reader_path(True), mock.patch.object(np, "loadtxt", loadtxt), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        back = read_tensor_file(path)
    assert fork.call_count == 1
    assert back.data.tobytes() == t.data.tobytes()
    assert capfd.readouterr() == ("", "")
    _assert_no_child_is_left()


@pytest.mark.skipif(
    not (cli._CAN_FORK and len(os.sched_getaffinity(0)) >= 2),
    reason="the two-process read needs os.fork and at least 2 usable CPUs",
)
def test_a_cli_text_sized_body_is_read_in_two_processes(tmp_path):
    # The benchmark's cli_text file: 100^3 values at 17 digits, 22 MB.
    t = random_tensor(np.random.default_rng(134), (100, 100, 100))
    path = str(tmp_path / "t.t3")
    write_tensor_file(path, t)
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        back = read_tensor_file(path)
    assert fork.call_count == 1
    assert back.data.tobytes() == t.data.tobytes()
    _assert_no_child_is_left()


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(121)
    path = tmp_path / "m.mat"
    for shape in ((4, 3), (1, 3), (3, 1)):
        m = rng.standard_normal(shape)
        write_matrix_file(str(path), m)
        back = read_matrix(path)
        assert back.shape == m.shape and back.tobytes() == m.tobytes()


def test_matrix_file_of_a_transposed_view_pins_its_zero_rows(tmp_path):
    # BSTA writes factor.T, a view that is not C-contiguous.
    view = np.array([[0.0, 1.0, 0.0, -0.0], [0.0, 2.5, 0.0, 0.0], [0.0, 5e-324, 0.0, 0.0]]).T
    assert not view.flags.c_contiguous
    path = tmp_path / "m.mat"
    write_matrix_file(str(path), view)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["m2 4 3"] + [" ".join(f"{v:.17g}" for v in row) for row in view]
    assert lines[1] == lines[3] == "0 0 0" and lines[4] == "-0 0 0"
    assert read_matrix(path).tobytes() == np.ascontiguousarray(view).tobytes()


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
        # No tensor has it: a mode's rank is at most the product of the other two.
        ["--mlrank", "3,1,1"],
        ["--mlrank", "1,1,1", "--noise", "nan"],
        ["--mlrank", "1,1,1", "--noise", "inf"],
        ["--mlrank", "1,1,1", "--noise", "-1"],
    ):
        rc, out, err = run_cli(capsys, base + extra)
        assert rc == 1, extra
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out_file.exists()


@settings(max_examples=30, deadline=None)
@given(
    mlrank=st.tuples(*[st.integers(1, 5)] * 3),
    seed=st.integers(0, 2**16),
)
@example(mlrank=(5, 1, 1), seed=0)
@example(mlrank=(5, 2, 2), seed=0)
@example(mlrank=(4, 2, 2), seed=0)
def test_gen_writes_its_mlrank_or_refuses_it(tmp_path_factory, mlrank, seed):
    # gen --dims 6,6,6 --mlrank 5,2,2 once wrote a tensor whose rank read 4x2x2.
    out_file = tmp_path_factory.mktemp("gen") / "t.t3"
    text = ",".join(map(str, mlrank))
    argv = ["gen", str(out_file), "--dims", "6,6,6", "--mlrank", text, "--seed", str(seed)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    if max(mlrank) ** 2 > math.prod(mlrank):
        assert rc == 1
        assert err.getvalue() == (
            f"error: mlrank {mlrank}: no rank may exceed the product of the other two\n"
        )
        assert not out_file.exists()
    else:
        assert rc == 0
        assert multilinear_rank(read_tensor_file(str(out_file))) == mlrank


@pytest.mark.parametrize("dims", ["0,5,5", "-3,5,5"])
def test_gen_blames_nonpositive_dims(tmp_path, capsys, dims):
    out_file = tmp_path / "t.t3"
    rc, out, err = run_cli(capsys, ["gen", str(out_file), f"--dims={dims}", "--mlrank", "1,1,1"])
    assert rc == 1 and out == ""
    assert err.startswith("error: dims must be") and err.count("\n") == 1, err
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

    x, y, z = (read_matrix(prefix + s) for s in (".x.mat", ".y.mat", ".z.mat"))
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

    c1, c2, c3 = (read_matrix(prefix + s) for s in (".c1.mat", ".c2.mat", ".c3.mat"))
    core = read_tensor_file(prefix + ".core.t3")
    assert c1.shape == (6, 7) and c2.shape == (4, 8) and c3.shape == (6, 6)
    rec = np.einsum("abc,ai,bj,ck->ijk", core.data, c1, c2, c3)
    assert np.linalg.norm(rec - t.data) <= 1e-7 * hs_norm(t)
    # The core file is the library's core, one row per line at 17 digits.
    # Its only nonzeros are the fibers core[j*r + k, i*r + k, :], so
    # (r - 1) / r of its lines are all zeros.
    p, q, r = 2, 3, 2
    rows = flrta_approx(t, select_indices(t, (p, q, r), seed=4)).core.data.reshape(-1, p * q)
    lines = Path(prefix + ".core.t3").read_text(encoding="utf-8").splitlines()
    assert lines == ["t3 6 4 6"] + [" ".join(f"{v:.17g}" for v in row) for row in rows]
    assert lines[1:].count(" ".join(["0"] * (p * q))) * r == (r - 1) * len(rows)
    # selected index sets are recorded in the report
    assert len(rep["i_set"].split(",")) == 2
    assert len(rep["j_set"].split(",")) == 3
    assert len(rep["k_set"].split(",")) == 2


def test_flrta_zero_tensor_degenerates_gracefully(tmp_path, capsys):
    f = str(tmp_path / "z.t3")
    write_tensor_file(f, DenseTensor3(np.zeros((4, 4, 4))))
    rc, out, err = run_cli(capsys, ["flrta", f, "2", "2", "2", str(tmp_path / "o")])
    assert rc == 0
    assert [line for line in err.splitlines() if not line.startswith("wall_time_s=")] == [
        "warning: all 20 sampling trials produced singular cross matrices "
        "for section sizes (2, 2, 2)"
    ]
    rep = report_dict(out)
    assert rep["degenerate"] == "true"
    assert rep["error_abs"] == "0"
    assert rep["cond_outer"] == "inf"


def _stderr_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if not line.startswith("wall_time_s=")]


def test_flrta_warns_when_it_is_no_better_than_the_zero_tensor(tmp_path, capsys):
    # The benchmark's cli_text tensor at 30^3: rank 10 plus noise 1e-3.  At
    # sections of the rank the pseudo-skeleton amplifies the noise, so the
    # error is 1.31 times the tensor's norm (2.08 at cli_text's 100^3).
    f = str(tmp_path / "n.t3")
    argv = ["gen", f, "--dims", "30,30,30", "--mlrank", "10,10,10", "--noise", "1e-3", "--seed", "1"]
    assert run_cli(capsys, argv)[0] == 0
    prefix = str(tmp_path / "o")
    rc, out, err = run_cli(capsys, ["flrta", f, "10", "10", "10", prefix])
    assert rc == 0
    assert _stderr_lines(err) == [
        "warning: FLRTA error is 1.31 times the tensor's norm at section sizes (10, 10, 10), "
        "no better than the zero tensor; try larger sections"
    ]
    # The warning goes to stderr only; the report is the one written.
    assert report_dict(out)["error_rel"] == "1.306330216427545"
    assert Path(prefix + ".report.txt").read_text(encoding="utf-8") == out


def test_flrta_does_not_warn_on_an_exact_cross(tmp_path, capsys):
    f = str(tmp_path / "e.t3")
    argv = ["gen", f, "--dims", "8,9,7", "--mlrank", "2,3,2", "--seed", "3"]
    assert run_cli(capsys, argv)[0] == 0
    rc, out, err = run_cli(capsys, ["flrta", f, "2", "3", "2", str(tmp_path / "o")])
    assert rc == 0
    assert float(report_dict(out)["error_rel"]) <= 1e-10
    assert _stderr_lines(err) == []


def test_flrta_rejects_negative_pinv_tol(tmp_path, capsys):
    f = str(tmp_path / "g.t3")
    rc, _, _ = run_cli(capsys, ["gen", f, "--dims", "5,5,5", "--mlrank", "2,2,2", "--seed", "1"])
    assert rc == 0
    prefix = str(tmp_path / "o")
    for tol in ("-1", "nan"):
        rc, out, err = run_cli(capsys, ["flrta", f, "3", "3", "3", prefix, "--pinv-tol", tol])
        assert rc == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error:") and "tolerance" in err
        assert not os.path.exists(prefix + ".report.txt")


@pytest.mark.parametrize(
    "method, flags, message",
    [
        ("bsta", ["--crit-tol", "inf"], "crit_tol must be finite and > 0, got inf"),
        # argparse reads 1e400 as inf without a word.
        ("bsta", ["--rel-tol", "1e400"], "rel_tol must be finite and > 0, got inf"),
        ("flrta", ["--pinv-tol", "inf"], "rank tolerance must be finite and >= 0, got inf"),
    ],
    ids=["crit-tol", "rel-tol", "pinv-tol"],
)
def test_infinite_tolerance_is_a_one_line_error(tmp_path, capsys, method, flags, message):
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(np.random.default_rng(5), (5, 5, 5)))
    rc, out, err = run_cli(capsys, [method, f, "2", "2", "2", str(tmp_path / "o"), *flags])
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["t.t3"]


#: A 2x2x2 tensor whose every 2x2 cross is nearly singular (condition 4e9).
_ILL_CONDITIONED = "t3 2 2 2\n1 2\n1 1\n1 1\n1.000000001 1\n"


@pytest.mark.parametrize("command", ["flrta", "bench"])
def test_library_warning_prints_as_one_line(tmp_path, capsys, monkeypatch, command):
    f = tmp_path / "ill.t3"
    f.write_text(_ILL_CONDITIONED, encoding="utf-8")
    if command == "flrta":
        argv = ["flrta", str(f), "2", "2", "2", str(tmp_path / "o")]
    else:
        argv = ["bench", str(f), "2,2,2", "1,1,1"]
    before = (warnings.showwarning, list(warnings.filters))
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    assert (warnings.showwarning, list(warnings.filters)) == before
    assert [line for line in err.splitlines() if not line.startswith("wall_time_s=")] == [
        "warning: best selection is poorly conditioned (worst condition number 4.000e+09)"
    ]

    # The same run with the warning silenced at its source gives the same report.
    def quiet_select(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return select_indices(*args, **kwargs)

    monkeypatch.setattr("tapprox.flrta.select_indices", quiet_select)
    rc, quiet_out, quiet_err = run_cli(capsys, argv)
    assert rc == 0 and "warning" not in quiet_err
    if command == "flrta":
        assert out == quiet_out
    else:
        assert parse_bench(out) == parse_bench(quiet_out)


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
                "degenerate": tokens[3],
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


def test_readme_report_block(tmp_path, capsys):
    # The README's CLI example quotes these two lines of the bsta report.
    f = str(tmp_path / "t.t3")
    argv = ["gen", f, "--dims", "7,7,7", "--mlrank", "3,3,3", "--noise", "1e-6", "--seed", "42"]
    assert run_cli(capsys, argv)[0] == 0
    assert run_cli(capsys, ["bsta", f, "3", "3", "3", str(tmp_path / "run"), "--json"])[0] == 0
    report = (tmp_path / "run.report.txt").read_text().splitlines()
    assert "error_abs=1.6787889292760535e-05" in report
    assert "error_rel=4.0697679099823362e-06" in report


def test_bench_zero_tensor_runs_with_zero_errors(tmp_path, capsys):
    f = str(tmp_path / "z.t3")
    write_tensor_file(f, DenseTensor3(np.zeros((4, 4, 4))))
    rc, out, err = run_cli(capsys, ["bench", f, "2,2,2", "2,2,2", "4,4,4"])
    assert rc == 0
    rows = parse_bench(out)
    assert out.splitlines()[0].split()[3] == "degenerate"
    assert [r["degenerate"] for r in rows] == ["-", "true"] * 3
    for row in rows:
        assert row["rel_error"] == 0.0
    # A repeated warning prints once, so only the column names every row.
    assert err.count("warning: ") == 2
    # A regular pick reads false, as the flrta report's degenerate= entry does.
    write_tensor_file(f, random_tensor(np.random.default_rng(0), (4, 4, 4)))
    rc, out, _ = run_cli(capsys, ["bench", f, "2,2,2"])
    assert rc == 0 and [r["degenerate"] for r in parse_bench(out)] == ["-", "false"]
    rc, out, _ = run_cli(capsys, ["flrta", f, "2", "2", "2", str(tmp_path / "o")])
    assert rc == 0 and report_dict(out)["degenerate"] == "false"


# ---------------------------------------------------------------------------
# seeds, exit codes, entry point

@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160])
def test_out_of_range_norm_is_a_one_line_error(tmp_path, capsys, scale):
    # Each scaled tensor's squared norm underflows below the smallest
    # normal float or overflows.
    f = str(tmp_path / "t.t3")
    base = np.random.default_rng(0).standard_normal((6, 5, 4))
    t = DenseTensor3(scale * base)
    write_tensor_file(f, t)
    for argv in (
        ["info", f],
        ["bsta", f, "2", "2", "2", str(tmp_path / "o")],
        ["flrta", f, "2", "2", "2", str(tmp_path / "o")],
        ["bench", f, "2,2,2"],
    ):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: hs_norm ") and err.count("\n") == 1
        assert err.rstrip().endswith("rescale the input")
    sel = IndexSelection(t.dims, (0, 1), (0, 1), (0, 1))
    for solve in (
        lambda: bsta_solve(t, BstaOptions(target_ranks=(2, 2, 2))),
        lambda: select_indices(t, (2, 2, 2)),
        lambda: flrta_approx(t, sel),
    ):
        with pytest.raises(ValueError, match="rescale the input") as exc_info:
            solve()
        assert "\n" not in str(exc_info.value)
    # The zero tensor is in range.
    write_tensor_file(f, DenseTensor3(np.zeros((6, 5, 4))))
    assert run_cli(capsys, ["info", f])[0] == 0
    for method in ("bsta", "flrta"):
        rc, _, _ = run_cli(capsys, [method, f, "2", "2", "2", str(tmp_path / "z")])
        assert rc == 0


def test_gen_beyond_memory_is_a_one_line_error(tmp_path, capsys):
    # 10**17 float64 values need more bytes than any 64-bit address space
    # maps (2**57), so gen must refuse them before it draws anything.
    out_file = tmp_path / "big.t3"
    rc, out, err = run_cli(
        capsys, ["gen", str(out_file), "--dims", "1000000,1000000,100000", "--mlrank", "1,1,1"]
    )
    assert rc == 1 and out == ""
    assert err == (
        "error: dims 1000000x1000000x100000: 100000000000000000 values do not fit in memory\n"
    )
    assert not out_file.exists()


@pytest.mark.parametrize("noise", ["1e160", "1e308"])
def test_gen_out_of_range_norm_is_a_one_line_error(tmp_path, capsys, noise):
    # 1e160 gives finite entries whose squared norm overflows; 1e308
    # overflows the entries themselves.
    out_file = tmp_path / "big.t3"
    rc, out, err = run_cli(
        capsys, ["gen", str(out_file), "--dims", "3,3,3", "--mlrank", "1,1,1", "--noise", noise]
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_file.exists()


def test_memory_error_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, DenseTensor3(np.ones((2, 2, 2))))

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr("tapprox.cli.multilinear_rank", exhausted)
    rc, out, err = run_cli(capsys, ["info", f])
    assert rc == 1 and out == ""
    assert err == "error: Unable to allocate 8.00 TiB for an array\n"


@pytest.mark.parametrize("method", ["bsta", "flrta"])
def test_missing_output_directory_fails_before_the_solve(tmp_path, capsys, monkeypatch, method):
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(np.random.default_rng(0), (4, 4, 4)))

    def never(*args, **kwargs):
        raise AssertionError("solved before the output directory was checked")

    monkeypatch.setattr("tapprox.cli.bsta_solve", never)
    monkeypatch.setattr("tapprox.flrta.select_indices", never)
    prefix = str(tmp_path / "missing" / "o")
    rc, out, err = run_cli(capsys, [method, f, "2", "2", "2", prefix])
    assert rc == 1 and out == ""
    assert err == f"error: the directory of output prefix {prefix!r} does not exist\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("method", ["bsta", "flrta"])
@pytest.mark.parametrize("prefix", ["out/", ""])
def test_prefix_without_a_file_name_fails_before_the_tensor_is_read(
    tmp_path, capsys, monkeypatch, method, prefix
):
    # A prefix ending in a separator would write hidden files such as out/.core.t3.
    write_tensor_file(str(tmp_path / "t.t3"), random_tensor(np.random.default_rng(0), (4, 4, 4)))
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError("read the tensor before the output prefix was checked")

    monkeypatch.setattr("tapprox.cli.read_tensor_file", never)
    monkeypatch.setattr("tapprox.cli._read_header", never)
    rc, out, err = run_cli(capsys, [method, "t.t3", "2", "2", "2", prefix])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: output prefix {prefix!r} names no file"), err
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "t.t3"]


@pytest.mark.parametrize("method", ["bsta", "flrta"])
@pytest.mark.parametrize(
    "infile, output, link, flags",
    [
        ("run.core.t3", "run.core.t3", None, []),
        ("t.t3", "run.report.txt", os.symlink, []),
        ("t.t3", "run.report.json", os.link, ["--json"]),
    ],
    ids=["same-name", "symlink", "hard-link"],
)
def test_output_that_is_the_input_fails_before_the_tensor_is_read(
    tmp_path, capsys, monkeypatch, method, infile, output, link, flags
):
    # Unchecked, `bsta run.core.t3 2 2 2 run` replaced its input with the core.
    write_tensor_file(str(tmp_path / infile), random_tensor(np.random.default_rng(0), (6, 5, 4)))
    before = (tmp_path / infile).read_bytes()
    monkeypatch.chdir(tmp_path)
    if link is not None:
        link(infile, output)
    files = sorted(os.listdir(tmp_path))
    reads, read_header = [], cli._read_header
    monkeypatch.setattr(
        "tapprox.cli.read_tensor_file", lambda path: reads.append(path) or read_tensor_file(path)
    )
    # Reading the header counts as a read too: it comes before the body.
    monkeypatch.setattr(
        "tapprox.cli._read_header",
        lambda path, *rest: reads.append(path) or read_header(path, *rest),
    )
    rc, out, err = run_cli(capsys, [method, infile, "2", "2", "2", "run", *flags])
    assert (rc, out, reads) == (1, "", [])
    assert err == f"error: output {output!r} would overwrite the input file {infile!r}\n"
    assert (tmp_path / infile).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == files


_OVER_RANKS = [
    (["bsta", "h.t3", "4", "2", "2", "o"], "target ranks (4, 2, 2)"),
    (["flrta", "h.t3", "2", "2", "4", "o"], "section sizes (2, 2, 4)"),
    (["bench", "h.t3", "2,2,2", "4,2,2"], "target ranks (4, 2, 2)"),
]


@pytest.mark.parametrize("argv, what", _OVER_RANKS, ids=["bsta", "flrta", "bench"])
def test_rank_above_its_dimension_fails_once_the_header_is_read(
    tmp_path, capsys, monkeypatch, argv, what
):
    # The file holds no values: the rank error must come from the header
    # alone, not "expected 27 values, found 0" after the body.
    (tmp_path / "h.t3").write_text("t3 3 3 3\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, argv)
    assert (rc, out, err) == (1, "", f"error: {what} out of range for dims (3, 3, 3)\n")
    assert os.listdir(tmp_path) == ["h.t3"]


def test_bench_checks_every_row_before_it_solves_one(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(np.random.default_rng(0), (3, 3, 3)))

    def never(*args, **kwargs):
        raise AssertionError("solved a row before every row was checked")

    monkeypatch.setattr("tapprox.cli.bsta_solve", never)
    monkeypatch.setattr("tapprox.flrta.select_indices", never)
    rc, out, err = run_cli(capsys, ["bench", f, "2,2,2", "4,2,2"])
    assert (rc, out) == (1, "")
    assert err == "error: target ranks (4, 2, 2) out of range for dims (3, 3, 3)\n"


@st.composite
def _dims_and_ranks(draw):
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    return dims, tuple(draw(st.integers(1, m + 2)) for m in dims)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_dims_and_ranks())
@example(((1, 4, 4), (2, 1, 1)))
@example(((1, 5, 5), (1, 6, 5)))
@example(((1, 3, 3), (1, 3, 3)))
def test_header_rank_check_says_what_the_solvers_say(tmp_path_factory, capsys, case):
    dims, ranks = case
    # Gaussian entries keep the norm in range; select_indices checks it before the sizes.
    t = random_tensor(np.random.default_rng(list(dims + ranks)), dims)
    d = tmp_path_factory.mktemp("ranks")
    full, header = str(d / "t.t3"), str(d / "h.t3")
    write_tensor_file(full, t)
    Path(header).write_text("t3 {} {} {}\n".format(*dims), encoding="utf-8")
    solvers = {
        "bsta": lambda: bsta_solve(t, BstaOptions(target_ranks=ranks)),
        "flrta": lambda: select_indices(t, ranks),
    }
    for method, solve in solvers.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                solve()
        except ValueError as exc:
            expected = f"error: {exc}\n"
        else:
            expected = None
        for path in (full, header):
            rc, out, err = run_cli(capsys, [method, path, *map(str, ranks), str(d / method)])
            if expected is not None:
                assert (rc, out, err) == (1, "", expected), (method, path)
            elif path == full:
                assert rc == 0, err
            else:
                assert err == f"error: {header}: expected {t.size} values, found 0\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_once(tmp_path, capsys):
    # A pipe, as in `bsta <(zcat t.t3.gz) ...`, has no header to read ahead of the body.
    f = tmp_path / "t.t3"
    write_tensor_file(str(f), random_tensor(np.random.default_rng(0), (4, 4, 4)))
    for ranks, want in (["2", "2", "2"], 0), (["5", "2", "2"], 1):
        r, w = os.pipe()
        os.write(w, f.read_bytes())
        os.close(w)
        try:
            rc, out, err = run_cli(capsys, ["bsta", f"/dev/fd/{r}", *ranks, str(tmp_path / "o")])
        finally:
            os.close(r)
        assert rc == want, err
    assert report_dict((tmp_path / "o.report.txt").read_text())["dims"] == "4x4x4"
    assert err == "error: target ranks (5, 2, 2) out of range for dims (4, 4, 4)\n"


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


@pytest.mark.parametrize("source", ["--seed", "TAPPROX_SEED"])
@pytest.mark.parametrize("command", ["gen", "bsta", "flrta", "bench"])
def test_negative_seed_is_a_one_line_error(tmp_path, capsys, monkeypatch, command, source):
    f = str(tmp_path / "t.t3")
    write_tensor_file(f, random_tensor(np.random.default_rng(0), (4, 4, 4)))
    argv = {
        "gen": ["gen", str(tmp_path / "g.t3"), "--dims", "4,4,4", "--mlrank", "2,2,2"],
        "bsta": ["bsta", f, "2", "2", "2", str(tmp_path / "o")],
        "flrta": ["flrta", f, "2", "2", "2", str(tmp_path / "o")],
        "bench": ["bench", f, "2,2,2"],
    }[command]
    if source == "--seed":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv(source, "-1")
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert source in err
    assert os.listdir(tmp_path) == ["t.t3"]


_BAD_OPTIONS = [
    pytest.param(command, "2,2,2", ["--seed", "-1"],
                 "--seed must be a non-negative integer, got -1", id=command)
    for command in ("bsta", "flrta", "bench")
] + [
    pytest.param(command, ranks, flags, message, id=f"{command}-{name}")
    for command, name, ranks, flags, message in [
        ("bsta", "max-sweeps", "2,2,2", ["--max-sweeps", "0"], "max_sweeps must be >= 1, got 0"),
        ("bsta", "rel-tol", "2,2,2", ["--rel-tol", "inf"], "rel_tol must be finite and > 0, got inf"),
        ("bsta", "crit-tol", "2,2,2", ["--crit-tol", "inf"],
         "crit_tol must be finite and > 0, got inf"),
        ("bsta", "rank", "0,2,2", [], "target_ranks must be three positive ints, got (0, 2, 2)"),
        ("flrta", "trials", "2,2,2", ["--trials", "0"], "trials must be >= 1, got 0"),
        ("flrta", "pinv-tol", "2,2,2", ["--pinv-tol", "-1"],
         "rank tolerance must be finite and >= 0, got -1.0"),
        ("flrta", "size", "2,0,2", [], "section sizes must be three positive ints, got (2, 0, 2)"),
        ("bench", "trials", "2,2,2", ["--trials", "0"], "trials must be >= 1, got 0"),
        ("bench", "rank", "2,2,0", [], "target_ranks must be three positive ints, got (2, 2, 0)"),
    ]
]


@pytest.mark.parametrize("command, ranks, flags, message", _BAD_OPTIONS)
def test_seed_is_checked_before_the_tensor_file_is_read(
    tmp_path, capsys, monkeypatch, command, ranks, flags, message
):
    # The seed and every other option: a bad one fails before the input is parsed.
    def read_tensor_file(path):
        raise AssertionError(f"{path} was read before the options were checked")

    monkeypatch.setattr("tapprox.cli.read_tensor_file", read_tensor_file)
    f = str(tmp_path / "missing.t3")
    if command == "bench":
        argv = ["bench", f, ranks]
    else:
        argv = [command, f, *ranks.split(","), str(tmp_path / "o")]
    rc, out, err = run_cli(capsys, argv + flags)
    assert (rc, out) == (1, "")
    assert err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_missing_file_gives_one_line_diagnostic(capsys):
    rc, out, err = run_cli(capsys, ["info", "/nonexistent/file.t3"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_malformed_triple_is_a_usage_error(tmp_path):
    for dims in ("3,3", "3,x,3"):
        with pytest.raises(SystemExit) as exc_info:
            main(["gen", str(tmp_path / "t.t3"), "--dims", dims, "--mlrank", "1,1,1"])
        assert exc_info.value.code == 2, dims


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
