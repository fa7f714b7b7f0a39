"""The compiled raster kernel's build, cache and fallback."""

import ctypes
import fnmatch
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crqopt import raster_kernel
from crqopt.clustering import apply_weights, build_graph
from oracles import graph_matrix

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """A loader that has not run in this process, caching into ``tmp_path``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(raster_kernel, "load", functools.cache(raster_kernel.load.__wrapped__))
    return tmp_path / "crqopt"


def _graph():
    image = np.random.default_rng(17).uniform(0.0, 255.0, (13, 17))
    return build_graph(image, 0.2, 3.7)


def _break_build(how, monkeypatch, tmp_path):
    if how == "no compiler":
        monkeypatch.setattr(raster_kernel, "CC", str(tmp_path / "no-such-cc"))
    elif how == "compiler error":
        monkeypatch.setattr(raster_kernel, "CFLAGS", raster_kernel.CFLAGS + ("-fno-such-flag",))
    else:
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(raster_kernel, "cache_dirs", lambda: [blocker / "crqopt"])


@pytest.mark.parametrize("how", ["no compiler", "compiler error", "no cache folder"])
def test_a_failed_build_warns_once_and_keeps_the_sorted_csr_bits(fresh_load, monkeypatch,
                                                                  tmp_path, how):
    _break_build(how, monkeypatch, tmp_path)
    with pytest.warns(UserWarning, match="could not be built") as record:
        graph = _graph()
        x = np.random.default_rng(3).standard_normal(graph.n)
        y = apply_weights(graph.weights, graph.shifts, x)
        assert raster_kernel.kernel_name() == raster_kernel.SCIPY_DIA
    assert len(record) == 1
    assert np.array_equal(y, graph_matrix(graph) @ x)
    assert np.array_equal(graph.degrees, graph_matrix(graph) @ np.ones(graph.n))


def test_the_first_product_builds_into_the_cache(fresh_load):
    assert not fresh_load.exists()
    _graph()
    assert raster_kernel.kernel_name() == raster_kernel.COMPILED
    built = [p.name for p in fresh_load.iterdir()]
    assert len(built) == 1 and built[0].startswith("raster_kernel-")


PRODUCT = """
import hashlib
import numpy as np
from crqopt import raster_kernel
from crqopt.clustering import apply_weights, build_graph
graph = build_graph(np.random.default_rng(17).uniform(0.0, 255.0, (13, 17)), 0.2, 3.7)
y = apply_weights(graph.weights, graph.shifts, np.linspace(-1.0, 1.0, graph.n))
print(raster_kernel.kernel_name(), hashlib.sha256(y.tobytes()).hexdigest())
"""


def _python(code, cache):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-W", "error", "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_two_first_builds_at_once_load_one_working_library(tmp_path):
    runs = [_python(PRODUCT, tmp_path) for _ in range(2)]
    outputs = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    first, second = (out.split() for out, _ in outputs)
    assert first == second and first[0] == raster_kernel.COMPILED
    assert [p.name for p in (tmp_path / "crqopt").iterdir()] == [
        raster_kernel.library_name(raster_kernel.source(), _cc_version())]


def _cc_version():
    return subprocess.run([raster_kernel.CC, "--version"], check=True,
                          capture_output=True).stdout


def test_a_changed_source_or_compiler_builds_a_new_library(compiled, tmp_path):
    code = raster_kernel.source()
    edited = code + b"\nint edited(void) { return 1; }\n"
    version = _cc_version()
    first = raster_kernel.build(tmp_path, code, version)
    built_at = first.stat().st_mtime_ns
    assert raster_kernel.build(tmp_path, code, version) == first
    assert first.stat().st_mtime_ns == built_at
    second = raster_kernel.build(tmp_path, edited, version)
    assert second != first
    assert ctypes.CDLL(str(second)).edited() == 1
    assert not hasattr(ctypes.CDLL(str(first)), "edited")
    assert raster_kernel.library_name(code, version + b" patched") != first.name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([first.name, second.name])


def test_the_loader_builds_what_the_source_says(compiled, fresh_load, monkeypatch):
    _graph()
    (old,) = fresh_load.iterdir()
    edited = raster_kernel.source() + b"\n/* edited */\n"
    monkeypatch.setattr(raster_kernel, "source", lambda: edited)
    monkeypatch.setattr(raster_kernel, "load", functools.cache(raster_kernel.load.__wrapped__))
    _graph()
    assert sorted(p.name for p in fresh_load.iterdir()) == sorted(
        [old.name, raster_kernel.library_name(edited, _cc_version())])


def test_the_source_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    packaged = raster_kernel.source()
    assert packaged == (ROOT / "src" / "crqopt" / raster_kernel.SOURCE).read_bytes()
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["crqopt"]
    assert any(fnmatch.fnmatch(raster_kernel.SOURCE, g) for g in globs)


NO_RASTER = """
import numpy as np
import crqopt
import crqopt.clustering
from crqopt import raster_kernel
A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
C = np.array([0.65, 1.0, 0.68, 1.13, -0.23]).reshape(-1, 1)
crqopt.solve(crqopt.CrqProblem(A, C, np.array([1.0])))
print(raster_kernel.load.cache_info().currsize)
"""


def test_a_solve_without_a_raster_never_builds_the_kernel(tmp_path):
    out, err = _python(NO_RASTER, tmp_path).communicate(timeout=120)
    assert out.split() == ["0"], err
    assert not (tmp_path / "crqopt").exists()
