"""Package surface: the package imports, every exported name exists, only
the budget ledger draws privacy noise, and the harness calls a synthesizer
and the DP Mann-Whitney test in one place."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dpsynth

MODULES = sorted(info.name for info in pkgutil.iter_modules(dpsynth.__path__))


def test_package_imports_in_a_fresh_interpreter():
    subprocess.run([sys.executable, "-c", "import dpsynth"], check=True)


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
