"""Every package's public surface resolves.

A package ``__init__`` re-exports names from its modules and lists
them in ``__all__``. Deleting a definition while leaving its name in
``__all__`` still imports cleanly — until someone writes ``from
repro.<pkg> import *`` or looks the name up. These checks walk every
``repro`` package, so such a leftover fails here under its own name.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


PACKAGES = _packages()


def test_the_walk_finds_every_package():
    assert {"repro", "repro.crypto", "repro.drm.roap",
            "repro.lint.rules"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), "duplicate in __all__"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert missing == []


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_succeeds(name):
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
