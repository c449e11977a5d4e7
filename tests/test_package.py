"""Package surface: the package imports, and loads scipy only for a config
that needs it; a one-worker run imports no process pool, and a pool worker
imports nothing on its first task; every exported name exists, only the
budget ledger draws privacy noise, and the harness calls a synthesizer and
the DP Mann-Whitney test in one place."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dpsynth
from dpsynth import harness, report

MODULES = sorted(info.name for info in pkgutil.iter_modules(dpsynth.__path__))
REPO = Path(__file__).resolve().parents[1]
WORKLOADS = REPO / "perfbench" / "workloads"
# Every grid config that the repository ships: the benchmark's and the experiments'.
GRID_CONFIGS = sorted(WORKLOADS.glob("*/*.json")) + sorted((REPO / "configs").glob("*.json"))


def run_python(code: str, *args: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that imports this dpsynth."""
    path = os.pathsep.join(filter(None, [str(Path(dpsynth.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], check=True, capture_output=True, text=True, env=env).stdout


SCIPY_AFTER = """
import sys
from dpsynth import cli, harness
for path in sys.argv[2:]:
    harness.load_configs(path)
if sys.argv[1]:
    assert cli.main(["report", "--reports", sys.argv[1], "--out", sys.argv[1] + ".out"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def scipy_modules_after(*configs, reports: Path | None = None) -> list[str]:
    """The scipy modules loaded by importing dpsynth, loading ``configs`` and re-rendering ``reports``."""
    out = run_python(SCIPY_AFTER, str(reports or ""), *map(str, configs)).splitlines()
    return ast.literal_eval(out[-1])


def test_package_imports_in_a_fresh_interpreter(tmp_path):
    # MW-U, DP-MW and the histogram synthesizers need no scipy, and neither
    # does re-rendering saved reports.
    assert scipy_modules_after() == []
    grids = [*WORKLOADS.glob("hist_grid/*.json"), *WORKLOADS.glob("dpmw_grid/*.json")]
    grids += [REPO / "configs" / name for name in ("gaussian_perturbed_null.json", "gaussian_validity.json")]
    config = harness.load_config(grids[0])
    report.emit_report(harness.run_grid(replace(config, repetitions=2)), tmp_path, alpha=config.alpha)
    assert scipy_modules_after(*grids, reports=tmp_path / "reports.json") == []


@pytest.mark.parametrize(
    "generator, test",
    [("copula", "mw_u"), ("copula", "chi2"), ("gaussian", "t"), ("gaussian", "chi2"), ("gaussian", "median")],
)
def test_a_config_that_calls_scipy_loads_it_when_validated(tmp_path, generator, test):
    payload = {"generator": {"kind": generator}, "synthesizer": "none", "epsilons": [1.0], "original_sizes": [50]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, "test": test}), encoding="utf-8")
    assert "scipy.special" in scipy_modules_after(path)


POOL_PROBE = """
import sys
from dataclasses import replace
import dpsynth
from dpsynth import harness
for path in sys.argv[1:]:
    for config in harness.load_configs(path):
        harness.run_grid(replace(config, repetitions=min(config.repetitions, 2)), workers=1)
print("concurrent.futures" in sys.modules)
"""


def test_a_one_worker_run_imports_no_pool():
    # Only the MW-U and DP-MW grids: scipy imports concurrent.futures itself.
    grids = [*WORKLOADS.glob("hist_grid/*.json"), *WORKLOADS.glob("dpmw_grid/*.json")]
    assert len(grids) == 3
    assert run_python(POOL_PROBE, *map(str, grids)).splitlines()[-1] == "False"


WORKER_PROBE = """
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from dpsynth import harness

def first_task(task):
    before = set(sys.modules)
    harness._chunk_task(task)
    return sorted(set(sys.modules) - before)

added = []
for config in harness.load_configs(sys.argv[1]):
    config = replace(config, repetitions=min(config.repetitions, 2))
    cell = harness.grid_cells(config)[0]
    task = (config, cell, 0, harness._load_source(config), range(config.repetitions))
    with ProcessPoolExecutor(1) as pool:
        added.append(pool.submit(first_task, task).result())
print(added)
"""


@pytest.mark.parametrize("path", GRID_CONFIGS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_a_fresh_workers_first_chunk_imports_nothing(path):
    # A module that a worker imports on its first task costs every worker of
    # every pool; numpy.random and numpy.ma are imported lazily by numpy.
    added = ast.literal_eval(run_python(WORKER_PROBE, str(path)).splitlines()[-1])
    assert added and all(modules == [] for modules in added)


def test_only_special_imports_scipy():
    importers = []
    for path in sorted(Path(dpsynth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            names += [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else []
            importers += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert importers == [("special.py", "scipy.special")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"dpsynth.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


# Noise samplers, by the name a call uses: the package's own and numpy's
# generator methods behind it. numpy's ``laplace`` stays listed, so that a
# continuous draw added back anywhere fails as stray.
NOISE_SAMPLERS = {"discrete_laplace_sample", "gumbel", "laplace", "exponential"}


def calls_of(names: set[str], tree: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing class and function names, call) for every call of a function named in ``names``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope + (node.name,) if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else scope
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield scope, node
        yield from calls_of(names, node, inner)


def test_only_the_budget_ledger_draws_noise():
    # Every noise scale comes from a ledger entry: the ledger's methods draw,
    # and DP-MW's simulated null is re-noised at the scale of its 2U entry.
    allowed, stray = [], []
    for path in sorted(Path(dpsynth.__file__).parent.glob("*.py")):
        for scope, call in calls_of(NOISE_SAMPLERS, ast.parse(path.read_text(encoding="utf-8"))):
            where = (path.name, *scope)
            if where == ("rng.py", "discrete_laplace_sample"):
                continue  # the sampler's own definition
            null_noise = where == ("dpmw.py", "dp_mann_whitney") and ast.unparse(call.args[0]) == "ledger.entries[1].scale"
            ledger = where[:2] == ("synth.py", "BudgetLedger")
            (allowed if ledger or null_noise else stray).append((where, ast.unparse(call.func)))
    assert stray == []
    # The ledger's one additive draw, the Gumbel keys of ``select`` and the null noise.
    assert sorted(allowed) == [
        (("dpmw.py", "dp_mann_whitney"), "discrete_laplace_sample"),
        (("synth.py", "BudgetLedger", "noise"), "discrete_laplace_sample"),
        (("synth.py", "BudgetLedger", "select"), "rng.generator.gumbel"),
    ]


def test_harness_calls_a_synthesizer_in_one_place():
    # Every cell runs through ``_block``: it is the one place that calls a
    # synthesizer and the one that calls the DP Mann-Whitney test, and there
    # is no second dispatch path.
    package = Path(dpsynth.__file__).parent
    tree = ast.parse((package / "harness.py").read_text(encoding="utf-8"))
    synthesizer_calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Subscript)
        and ast.unparse(node.func.value) == "SYNTHESIZERS"
    ]
    dp_test_calls = [
        node for node in ast.walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func) == "dp_mann_whitney"
    ]
    (block,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_block"]
    assert len(synthesizer_calls) == 1 and len(dp_test_calls) == 1
    assert synthesizer_calls[0] in list(ast.walk(block)) and dp_test_calls[0] in list(ast.walk(block))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert defined & {"_repetition", "_tally", "_merge", "Tally"} == set()
    assert [path.name for path in sorted(package.glob("*.py")) if "BATCHED" in path.read_text(encoding="utf-8")] == []


# The hand-written readers that :func:`dpsynth.data.from_json` replaced.
RETIRED_READERS = {"_cast", "_has_type", "_reject_unknown", "_load_copula"}


def test_one_json_reader():
    # Only ``data.from_json`` reads annotations, and no hand-written reader is defined again.
    hint_calls, retired = [], []
    for path in sorted(Path(dpsynth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hint_calls += [(path.name, *scope) for scope, _ in calls_of({"get_type_hints"}, tree)]
        retired += [
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in RETIRED_READERS
        ]
    assert retired == []
    assert hint_calls == [("data.py", "from_json")]
