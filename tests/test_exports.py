"""Every name a package lists in ``__all__`` resolves, so a class deleted
from a module cannot linger in an export list."""

import importlib

import pytest

PACKAGES = [
    "toricnet.exactcore",
    "toricnet.ncsf",
    "toricnet.hopfdiff",
    "toricnet.freeprob",
    "toricnet.crn",
    "toricnet.torictop",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
