"""Cold start: what ``import czest`` loads, and how lp reaches HiGHS.

Each case runs in a fresh interpreter, since this test process has long
imported scipy.optimize by the time it runs.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import czest

SRC = pathlib.Path(czest.__file__).resolve().parent.parent
BINDING = "scipy.optimize._highspy._core"


def run_python(code, *path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), str(SRC)]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_import_loads_the_binding_without_scipy_optimize_or_sparse():
    proc = run_python(
        "import json, sys, czest, czest.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded
    assert BINDING in loaded
    assert all(m.startswith(BINDING) for m in loaded), loaded


@pytest.mark.parametrize(
    "first, second",
    [("import czest.lp", "import scipy.optimize"), ("import scipy.optimize", "import czest.lp")],
    ids=["czest-first", "scipy-first"],
)
def test_scipy_and_lp_share_one_binding(first, second):
    proc = run_python(
        f"{first}\n{second}\n"
        "import sys\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy._core import _Highs\n"
        "res = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], bounds=[(0, None)] * 2, method='highs')\n"
        "assert res.status == 0 and abs(res.fun - 1) < 1e-9, res\n"
        f"assert sys.modules['{BINDING}']._Highs is _Highs is czest.lp._highs._Highs\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        f"assert _highs_wrapper._h is sys.modules['{BINDING}'] is czest.lp._highs\n"
        "assert abs(czest.lp.LinearProgram([[1, 1]], [1], [0, 0], [1, 1]).solve([1, 2]).value - 1) < 1e-9\n"
        "print('ok')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_missing_binding_names_the_directory_and_version(tmp_path):
    # a scipy package first on the path whose directory has no binding
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0.test"\n')
    proc = run_python("import czest.lp", tmp_path)
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: no HiGHS binding"), proc.stderr
    assert str(tmp_path / "scipy" / "optimize" / "_highspy") in last
    assert "scipy 0.0.test" in last


@pytest.mark.parametrize("method", ["passModel", "setBasis", "modelStatusToString"])
def test_binding_without_a_called_method_names_it(monkeypatch, method):
    # a stub binding in the binding's place, whose _Highs has every method
    # lp calls but one
    import types

    import scipy

    from czest import lp

    stub = types.ModuleType(BINDING)
    stub._Highs = type("_Highs", (), {name: None for name in lp._HIGHS_METHODS if name != method})
    monkeypatch.setitem(sys.modules, BINDING, stub)
    with pytest.raises(ImportError, match=rf"no _Highs\.{method}, .*\(scipy {scipy.__version__}\)"):
        lp._load_highs()
    stub._Highs = type("_Highs", (), dict.fromkeys(lp._HIGHS_METHODS))
    assert lp._load_highs() is stub
