"""Package re-exports that load on first use (PEP 562).

A package ``__init__`` lists its re-exports as ``{module: names}`` and
binds the pair :func:`lazy_exports` returns as its module-level
``__getattr__`` and ``__dir__``.  ``from repro import X`` then imports
only the module that defines ``X``, and a command pays only for the
modules it runs.  The package's ``__all__`` stays its declared surface,
so ``from package import *`` and ``dir(package)`` see every name.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name is imported on its first access and then
    bound on the package, so later lookups are plain attribute reads.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return __getattr__, __dir__
