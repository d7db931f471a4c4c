"""Structural rules of the package source, checked on its syntax tree, what
importing the package loads, and what the tests and benchmark import."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

import dbnkit
from dbnkit import config, estimation, pipeline

SRC = Path(dbnkit.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# calls that read or write a file's raw bytes whatever their arguments
BYTE_CALLS = {"read_bytes", "write_bytes", "fromfile", "tofile"}
# names that read the CPU set or start a pool of worker processes
WORKER_NAMES = {"sched_getaffinity", "cpu_count", "ProcessPoolExecutor", "Pool"}
# a function whose name holds one of these words is a sigmoid, and so is a
# call of one of these
SIGMOID_WORDS = ("sigmoid", "logistic")
SIGMOID_CALLS = {"tanh", "expit"}
# ufuncs that raise a base to each element of an exponent array
POWER_CALLS = {"left_shift", "power", "float_power", "exp2", "ldexp"}
# names that hold all of an enumerated side's states at once, or repeat rows
# into every (x, y) pair of a grid
PAIR_GRID_NAMES = {"binary_states", "repeat", "tile"}


def _is_binary_mode(mode):
    # a mode that is not a literal might be binary
    return not (isinstance(mode, ast.Constant) and "b" not in str(mode.value))


def binary_file_access(tree):
    """Line numbers where a module imports struct or opens a file in binary mode."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            # open(file, mode) or path.open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            modes = node.args[position : position + 1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if name in BYTE_CALLS or (name == "open" and any(map(_is_binary_mode, modes))):
                yield node.lineno


def test_only_storage_reads_and_writes_binary_files():
    found = {
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "storage.py"
        for line in binary_file_access(ast.parse(path.read_text()))
    }
    assert not found, f"binary file access outside storage.py: {sorted(found)}"


def test_the_rule_sees_each_form_of_binary_access():
    code = """
import struct
from struct import pack
open(p, "rb")
open(p, mode="wb")
p.open("rb")
p.read_bytes()
np.fromfile(p)
open(p)
open(p, "w", newline="")
p.open()
"""
    assert sorted(binary_file_access(ast.parse(code))) == [2, 3, 4, 5, 6, 7, 8]


def named_lines(tree, wanted):
    """Line numbers where a module imports, or names as a variable or an
    attribute, one of the names in ``wanted``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        if names & wanted:
            yield node.lineno


def worker_decisions(tree):
    """Line numbers where a module names a CPU-count call or a process pool."""
    return named_lines(tree, WORKER_NAMES)


def test_only_the_pool_helper_decides_worker_processes():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "estimation.py":
            # its imports and estimation._map_in_processes may name them
            helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name == "_map_in_processes")
            allowed = set(range(helper.lineno, helper.end_lineno + 1))
            allowed |= {node.lineno for node in tree.body
                        if isinstance(node, (ast.Import, ast.ImportFrom))}
        found |= {f"{path.name}:{line}" for line in worker_decisions(tree) if line not in allowed}
    assert not found, f"worker processes decided outside _map_in_processes: {sorted(found)}"


def test_the_rule_sees_each_form_of_worker_decision():
    code = """
import os
os.sched_getaffinity(0)
os.cpu_count()
from os import cpu_count
from concurrent.futures import ProcessPoolExecutor
ProcessPoolExecutor(max_workers=2)
concurrent.futures.ProcessPoolExecutor(2)
multiprocessing.get_context("fork").Pool(2)
len(affinity)
pool.map(fn, jobs)
"""
    assert sorted(worker_decisions(ast.parse(code))) == [3, 4, 5, 6, 7, 8, 9]


def sigmoid_definitions(tree):
    """Line numbers where a module defines a function named like a sigmoid
    (or binds such a name to a lambda) or calls tanh or expit."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in SIGMOID_CALLS:
                yield node.lineno
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        if any(word in name.lower() for name in names for word in SIGMOID_WORDS):
            yield node.lineno


def test_only_numerics_defines_a_sigmoid():
    found = {
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "numerics.py"
        for line in sigmoid_definitions(ast.parse(path.read_text()))
    }
    assert not found, f"sigmoid outside numerics.logistic: {sorted(found)}"


def test_the_rule_sees_each_form_of_sigmoid():
    code = """
def _sigmoid(z, out=None):
    return 0.5 * (np.tanh(0.5 * z) + 1.0)
def logistic_rows(x):
    pass
Sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
np.tanh(z, out=z)
tanh(z)
scipy.special.expit(z)
p = logistic(x, out=x)
sigmoid_of_act = act
def log_loss(x):
    pass
"""
    assert sorted(sigmoid_definitions(ast.parse(code))) == [2, 3, 4, 6, 7, 8, 9]


def _is_arange(node):
    func = node.func if isinstance(node, ast.Call) else None
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "arange"


def bit_power_packings(tree):
    """Line numbers where a module builds the powers of two that pack binary
    states into integer codes: ``1 << arange``, ``2 ** arange`` or a power
    ufunc of an arange."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.Pow)):
            if isinstance(node.left, ast.Constant) and _is_arange(node.right):
                yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in POWER_CALLS and any(map(_is_arange, node.args)):
                yield node.lineno


def test_only_models_packs_binary_states():
    # models.state_index is the one packing the path tables, the oracles and
    # the tests share
    found = {
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "models.py"
        for line in bit_power_packings(ast.parse(path.read_text()))
    }
    assert not found, f"state packing outside models.state_index: {sorted(found)}"


def test_the_rule_sees_each_form_of_bit_power_packing():
    code = """
powers = 1 << np.arange(k, dtype=np.int64)
codes = x @ (2 ** np.arange(k))
w = 2.0 ** arange(k)
np.left_shift(1, np.arange(k))
np.power(2, np.arange(k))
np.exp2(np.arange(k))
bits = (codes[:, None] >> np.arange(k)) & 1
squares = np.arange(k) ** 2
n = 2 ** k
np.power(x, 2)
"""
    assert sorted(bit_power_packings(ast.parse(code))) == [2, 3, 4, 5, 6, 7]


def test_brute_force_builds_no_pair_grid():
    # dbn's tables stream state_chunks through matrix products in blocks; a
    # grid of every (x, y) pair took about 510 bytes a cell
    found = sorted(set(named_lines(ast.parse((SRC / "dbn.py").read_text()), PAIR_GRID_NAMES)))
    assert not found, f"dbn.py builds whole state or pair grids at lines {found}"


def test_the_rule_sees_each_form_of_pair_grid():
    code = """
from .models import GRBM, binary_states
ys = models.binary_states(k, budget)
pairs = np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))
rows = xs.repeat(2, axis=0)
for chunk in state_chunks(k, budget, what):
    np.concatenate([chunk, chunk])
"""
    assert sorted(set(named_lines(ast.parse(code), PAIR_GRID_NAMES))) == [2, 3, 4, 5]


def test_only_numerics_and_estimation_read_log2():
    # bits come from numerics.bits_per_component and estimation.report_fields
    found = {
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in {"numerics.py", "estimation.py"}
        for line in named_lines(ast.parse(path.read_text()), {"LOG2"})
    }
    assert not found, f"LOG2 read outside numerics and estimation: {sorted(found)}"


def test_the_rule_sees_each_form_of_log2():
    code = """
from .numerics import LOG2, RngStream
bits = -log_p / numerics.LOG2
bits = -log_p / LOG2
log2 = np.log(2.0)
"""
    assert sorted(named_lines(ast.parse(code), {"LOG2"})) == [2, 3, 4]


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy's import is about half of a CLI process's start; only the
    # full-covariance baselines need it
    out = run_fresh(f"""
        import sys
        import dbnkit, dbnkit.cli
        print({LOADED_SCIPY})
        """)
    assert out.strip() == "[]"


def test_full_covariance_densities_load_scipy_on_demand():
    out = run_fresh(f"""
        import sys
        import numpy as np
        from dbnkit import baselines, pipeline
        from dbnkit.numerics import RngStream, log_sum_exp
        assert {LOADED_SCIPY} == []

        def gauss(x, cov):
            sign, logdet = np.linalg.slogdet(cov)
            maha = np.einsum("ij,ji->i", x, np.linalg.solve(cov, x.T))
            return -0.5 * (maha + logdet + x.shape[1] * np.log(2 * np.pi))

        x = np.random.default_rng(0).standard_normal((50, 3))
        g = baselines.fit_gaussian(x)
        np.testing.assert_allclose(g.log_density(x), gauss(x - g.mean, g.covariance), atol=1e-10)
        spec = pipeline.synthetic_spec(7, kind="full_cov_mixture", dim=3, components=2)
        ds = pipeline.synthesize(spec, 40, RngStream(1).generator())
        mog = baselines.MogModel(spec["covariances"], spec["weights"])
        want = log_sum_exp([gauss(ds.samples, c) + np.log(w)
                            for c, w in zip(spec["covariances"], spec["weights"])], axis=0)
        np.testing.assert_allclose(ds.true_log_density(ds.samples), want, atol=1e-10)
        np.testing.assert_allclose(mog.log_density(ds.samples), want, atol=1e-10)
        print("scipy.linalg" in sys.modules)
        """)
    assert out.strip() == "True"


def imported_top_levels(path):
    """Top-level names of a source file's absolute imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_tests_and_benchmark_import_only_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {project["name"]} | {
        re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements
    }
    undeclared = set()
    for path in sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        # a sibling module, as perfbench's scripts import each other
        known = declared | sys.stdlib_module_names | {p.stem for p in path.parent.glob("*.py")}
        undeclared |= {f"{path.parent.name}/{path.name}: {name}"
                       for name in imported_top_levels(path) if name not in known}
    assert not undeclared, f"imports missing from pyproject.toml: {sorted(undeclared)}"


def test_config_sections_come_from_their_spec_objects():
    # [ais] and [estimator] split EstimatorSpec's fields, [preprocess] holds
    # PreprocessSpec's, and no default is kept outside the object that uses it
    ais, estimator = set(config._SCHEMA["ais"]), set(config._SCHEMA["estimator"])
    assert not ais & estimator
    assert ais | estimator == {f.name for f in fields(estimation.EstimatorSpec)}
    assert set(config._SCHEMA["preprocess"]) == {f.name for f in fields(pipeline.PreprocessSpec)}
    assert set(config._DEFAULTS) == {"experiment"}
