"""Structure guards: the quadrature layout and its prior weights live in kernels.py alone."""

import ast
import inspect
from pathlib import Path

import hsuq
from hsuq.posterior import PosteriorBatch

LAYOUT_INTERNALS = {"_panel_edges", "_split_edges", "_panel_nodes", "_gauss_rule", "_prior"}


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
