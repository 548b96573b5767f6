"""Structure guards: the quadrature layout and its prior weights live in
kernels.py alone, each replication-harness decision is made in one place,
each argument rule is stated once, and scipy.optimize and scipy.integrate
load only with the calls that use them."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import hsuq
from hsuq import experiments
from hsuq.posterior import PosteriorBatch

LAYOUT_INTERNALS = {"_panel_edges", "_split_edges", "_panel_nodes", "_gauss_rule", "_prior"}
SIGNAL_CLASSES = {"FixedValue", "NormalAround", "ThreeGroup", "FromDistribution"}
# the message of each argument rule, and the one threshold formula
RULE_TEXTS = ("tau must lie in", "kernel order must be one of",
              "blow-up factor must be positive", "alpha must be in (0, 1)",
              "kS and f must be positive", "sqrt(2.0 * math.log(1.0 /",
              "value not finite", "need A > 1", "A * math.sqrt(2.0 * math.log(n / q))")


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_kernels_knows_the_panel_layout():
    src = Path(hsuq.__file__).parent
    offenders = {
        path.name: sorted(LAYOUT_INTERNALS.intersection(_names(ast.parse(path.read_text()))))
        for path in sorted(src.glob("*.py")) if path.name != "kernels.py"
    }
    assert {k: v for k, v in offenders.items() if v} == {}


def test_posterior_batch_takes_no_layout_argument():
    assert "splits" not in inspect.signature(PosteriorBatch).parameters


def test_posterior_batch_has_one_sampler():
    # draws come from the node law itself, not from a second panel law
    for name in ("_cells", "_quantile_table", "_invert_flat"):
        assert not hasattr(PosteriorBatch, name)


def _isinstance_sites(node, scope=""):
    # (enclosing qualified name, class names) of every isinstance call
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _isinstance_sites(child, f"{scope}{child.name}.")
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"):
            yield scope.rstrip("."), set(_names(child.args[1]))
        yield from _isinstance_sites(child, scope)


def test_signal_specs_draw_and_label_themselves():
    # only config validation asks which signal class it holds
    tree = ast.parse(Path(experiments.__file__).read_text())
    scopes = {scope for scope, names in _isinstance_sites(tree) if names & SIGNAL_CLASSES}
    assert scopes == {"ScenarioConfig.__post_init__"}
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"_signal_label", "_scale_from_arg", "_threshold_report"})


def test_each_argument_rule_is_stated_once():
    src = Path(hsuq.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    assert {rule: text.count(rule) for rule in RULE_TEXTS} == dict.fromkeys(RULE_TEXTS, 1)
    # the array kernels share one front, kernels._elementwise
    assert "_as_flat" not in text and "_restore" not in text


LAZY_MODULES = ("scipy.optimize", "scipy.integrate")
# run in a fresh interpreter: the test modules import scipy.integrate themselves
IMPORT_PROBE = """
import sys
import numpy as np
import hsuq

def loaded():
    return [m for m in LAZY if m in sys.modules]

seen = {"import": loaded()}
Y = np.random.default_rng(0).standard_normal(300)
hsuq.credible_ball(Y, 0.05, 0.05, 1.0, 1000, np.random.default_rng(1))
hsuq.run_chain(Y, hsuq.HyperPrior.truncated_half_cauchy(), iters=50, burn_in=10)
seen["ball and chain"] = loaded()
hsuq.mmle(Y)
seen["mmle"] = loaded()
print(seen)
"""


def _child(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(hsuq.__file__).parent.parent)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_ball_and_hb_paths_load_no_optimizer_or_integrator():
    out = _child("-c", f"LAZY = {LAZY_MODULES!r}\n{IMPORT_PROBE}").stdout
    assert ast.literal_eval(out) == {
        "import": [], "ball and chain": [], "mmle": ["scipy.optimize"]}
    # -X importtime lists every module the command line imports on stderr
    err = _child("-X", "importtime", "-m", "hsuq", "--help").stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
    assert "hsuq.experiments" in imported
    assert imported.isdisjoint(LAZY_MODULES)


def _import_time_modules(node):
    # modules an import statement names outside every function body
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
            yield from (f"{child.module}.{alias.name}" for alias in child.names)
        yield from _import_time_modules(child)


def test_optimizer_and_integrator_are_imported_inside_functions_only():
    src = Path(hsuq.__file__).parent
    offenders = {
        path.name: sorted(m for m in _import_time_modules(ast.parse(path.read_text()))
                          if m.startswith(LAZY_MODULES))
        for path in sorted(src.glob("*.py"))
    }
    assert {k: v for k, v in offenders.items() if v} == {}
