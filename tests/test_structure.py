"""Structure guards: the quadrature layout and its prior weights live in
kernels.py alone, where only kernels._layout maps the Gauss rule (the
theta panels too: posterior.py names neither ndtr nor the rule), each
replication-harness decision is made in one place, each argument rule is
stated once, verify_theory alone parses, times and judges the theory checks,
the credible ball and the HB marginal intervals have one construction each,
the universal threshold has one formula, the sampler and integral_Ik draw
on the kernels' one z layout, and scipy.optimize and scipy.integrate load
only with the calls that use them."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hsuq
from hsuq import experiments, kernels
from hsuq.credible import CredibleBall, credible_ball
from hsuq.hierarchical import hb_marginal_intervals
from hsuq.kernels import _layout
from hsuq.posterior import PosteriorBatch

LAYOUT_INTERNALS = {"_panel_edges", "_split_edges", "_panel_nodes", "_gauss_rule", "_prior"}
SIGNAL_CLASSES = {"FixedValue", "NormalAround", "ThreeGroup", "FromDistribution"}
# the message of each argument rule, and the one threshold formula
RULE_TEXTS = ("tau must lie in", "kernel order must be one of",
              "blow-up factor must be positive", "alpha must be in (0, 1)",
              "kS and f must be positive", "sqrt(2.0 * math.log(1.0 /",
              "value not finite", "need A > 1", "A * math.sqrt(2.0 * math.log(n / q))",
              "its square overflows", "need 1 <= p <= n", "at least 1000 draws")
# the moment-radius ball and the fourth-moment kernel behind it
BALL_FORK_NAMES = ("ball_radius_approx", "posterior_fourth_central", "_weight_moments")


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _scoped_nodes(node, scope=""):
    # (enclosing qualified name, node) of every node below a module or body
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}{child.name}.")
            continue
        yield scope.rstrip("."), child
        yield from _scoped_nodes(child, scope)


def _constants(tree):
    return {repr(node.value) for node in ast.walk(tree) if isinstance(node, ast.Constant)}


def _read_name(node):
    # the name that a Name load or an attribute access reads, else None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_only_kernels_knows_the_panel_layout():
    src = Path(hsuq.__file__).parent
    offenders = {
        path.name: sorted(LAYOUT_INTERNALS.intersection(_names(ast.parse(path.read_text()))))
        for path in sorted(src.glob("*.py")) if path.name != "kernels.py"
    }
    assert {k: v for k, v in offenders.items() if v} == {}


def test_only_layout_maps_the_gauss_rule():
    src = Path(hsuq.__file__).parent
    scopes = {(path.name, scope) for path in sorted(src.glob("*.py"))
              for scope, node in _scoped_nodes(ast.parse(path.read_text()))
              if _read_name(node) == "_GAUSS_RULE"}
    assert scopes == {("kernels.py", "_layout")}


def test_posterior_solvers_use_no_z_evaluator_or_gauss_rule():
    # the solvers integrate the theta panels that kernels.py builds
    import hsuq.posterior

    names = set(_names(ast.parse(Path(hsuq.posterior.__file__).read_text())))
    assert names.isdisjoint({"ndtr", "_GAUSS_RULE", "_EVAL_BLOCK"})


def test_posterior_batch_takes_no_layout_argument():
    assert "splits" not in inspect.signature(PosteriorBatch).parameters


def test_kernels_have_one_z_rule():
    # no halving argument: every kernel, integral_Ik too, runs on the one layout
    for f in (kernels._layout, kernels._mixture_moments):
        assert "splits" not in inspect.signature(f).parameters


def test_integral_ik_makes_one_moment_pass(monkeypatch):
    passes = []

    def counted(*args):
        passes.append(args)
        return moments(*args)

    moments = kernels._mixture_moments
    monkeypatch.setattr(kernels, "_mixture_moments", counted)
    kernels.integral_Ik(3.0, 0.1, 0.5)
    assert len(passes) == 1


def test_sampler_draws_on_the_kernels_layout():
    # one z layout: the batch's nodes and weights are the kernels' own
    src = Path(hsuq.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "_BATCH_SPLITS" in p.read_text()] == []
    Y = np.random.default_rng(3).standard_normal(40) * 3.0
    for tau in (0.01, 0.5, 1.0):
        batch = PosteriorBatch(Y, tau)
        u, w = _layout(tau, float(np.max(np.abs(Y))))
        assert all(map(np.array_equal, batch._z_layout, (u, w)))


def test_posterior_batch_has_one_sampler():
    # draws come from the node law itself, not from a second panel law
    for name in ("_cells", "_quantile_table", "_invert_flat"):
        assert not hasattr(PosteriorBatch, name)


def test_posterior_batch_holds_no_node_matrix():
    # each sampler block builds its own rows' node law where it draws
    assert not hasattr(PosteriorBatch, "_W")


def test_credible_ball_has_one_construction():
    # the radius is the Monte Carlo quantile alone, with no method switch
    assert "method" not in inspect.signature(credible_ball).parameters
    assert "approx" not in {f.name for f in dataclasses.fields(CredibleBall)}
    src = Path(hsuq.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    assert [name for name in BALL_FORK_NAMES if name in text] == []


def test_hb_marginal_intervals_have_one_construction():
    # the equal-tail chain quantiles, with no method switch
    assert list(inspect.signature(hb_marginal_intervals).parameters) == ["chain", "alpha", "L"]
    src = Path(hsuq.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if '"centered"' in p.read_text()] == []


def test_universal_threshold_is_written_in_zeta_alone():
    # every sqrt(2 log(.)) goes through zeta, except the exceedance rule
    # A sqrt(2 log(n/q)), stated once in its own helper (see RULE_TEXTS)
    src = Path(hsuq.__file__).parent
    scopes = {(path.name, scope) for path in sorted(src.glob("*.py"))
              for scope, node in _scoped_nodes(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and _read_name(node.func) == "sqrt"
              and {"log", "2.0"} <= set(_names(node.args[0])) | _constants(node.args[0])}
    assert scopes == {("kernels.py", "zeta"), ("credible.py", "_exceedance_threshold")}


def test_signal_specs_draw_and_label_themselves():
    # only config validation asks which signal class it holds
    tree = ast.parse(Path(experiments.__file__).read_text())
    scopes = {scope for scope, node in _scoped_nodes(tree)
              if isinstance(node, ast.Call) and _read_name(node.func) == "isinstance"
              and SIGNAL_CLASSES.intersection(_names(node.args[1]))}
    assert scopes == {"ScenarioConfig.__post_init__"}
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"_signal_label", "_scale_from_arg", "_threshold_report"})


def test_theory_checks_leave_parsing_timing_and_results_to_verify_theory():
    tree = ast.parse(Path(experiments.__file__).read_text())
    checks = {node.name: set(_names(node)) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")}
    assert set(checks) == {entry[0].__name__ for entry in experiments.THEORY_CHECKS.values()}
    shared = {"perf_counter", "CheckResult", "params"}
    assert {name: sorted(used & shared) for name, used in checks.items() if used & shared} == {}


def test_each_argument_rule_is_stated_once():
    src = Path(hsuq.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    assert {rule: text.count(rule) for rule in RULE_TEXTS} == dict.fromkeys(RULE_TEXTS, 1)
    # the array kernels share one front, kernels._elementwise
    assert "_as_flat" not in text and "_restore" not in text


LAZY_MODULES = ("scipy.optimize", "scipy.integrate", "multiprocessing")
# run in a fresh interpreter: the test modules import scipy.integrate themselves
IMPORT_PROBE = """
import sys
import numpy as np
import hsuq

def loaded():
    return [m for m in LAZY if m in sys.modules]

seen = {"import": loaded()}
hsuq.kernels.kappa_threshold(0.01)
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
        "import": [], "ball and chain": [], "mmle": []}
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
