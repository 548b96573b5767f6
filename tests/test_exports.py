"""Every exported name resolves, so tools that walk __all__ can rely on it."""

import importlib

import pytest

import hsuq

MODULES = ("kernels", "posterior", "tau", "credible", "hierarchical",
           "selection", "experiments")


def test_package_exports_resolve():
    missing = [name for name in hsuq.__all__ if not hasattr(hsuq, name)]
    assert missing == []


@pytest.mark.parametrize("short", MODULES)
def test_module_exports_resolve(short):
    mod = importlib.import_module(f"hsuq.{short}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
