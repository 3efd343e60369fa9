import re
from pathlib import Path

import pytest

import tapprox
from tapprox import BstaOptions, bsta_solve, hs_norm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once_and_star_import_works():
    names = tapprox.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tapprox, n)] == []
    namespace: dict = {}
    exec("from tapprox import *", namespace)
    assert set(names) <= namespace.keys()


def test_readme_library_quickstart_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    namespace: dict = {}
    message = (
        r"^FLRTA error is 1\.1 times the tensor's norm at section sizes \(2, 3, 2\), "
        r"no better than the zero tensor; try larger sections$"
    )
    with pytest.warns(RuntimeWarning, match=message) as record:
        exec(code, namespace)
    assert len(record) == 1

    # The numbers the paragraph after the block quotes.
    t, result, cross = namespace["t"], namespace["result"], namespace["cross"]
    assert (result.sweeps, result.stop_reason, result.converged) == (136, "gain", False)
    assert f"{result.critical_point_residual:.2g}" == "9.3e-06"
    tight = bsta_solve(t, BstaOptions(target_ranks=(2, 3, 2), rel_tol=1e-14))
    assert (tight.sweeps, tight.converged) == (171, True)
    assert f"{cross.approx_error / hs_norm(t):.2f}" == "1.10"
    assert not cross.degenerate
    assert len(capsys.readouterr().out.splitlines()) == 2
