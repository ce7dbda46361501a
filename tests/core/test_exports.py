"""Every name a ``repro`` module exports in ``__all__`` resolves.

A stale string left in ``__all__`` fails only on ``from module import *``,
which nothing in the code base does; this imports every module instead.
"""

import importlib
import pkgutil

import repro


def test_every_name_in_every_all_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")  # importing it runs the CLI
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        unresolved = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if unresolved:
            missing[name] = unresolved
    assert len(names) > 50
    assert missing == {}
