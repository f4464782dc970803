"""PEP 562 lazy exports, shared by the package ``__init__`` modules.

A package lists each exported name with the module that defines it and
binds the pair this module returns::

    __getattr__, __dir__ = _lazy.exports(__name__, _LAZY_ATTRS)

Importing the package then imports none of those modules; each name
pays for its own module on first access.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def exports(
    package: str, lazy_attrs: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``lazy_attrs`` maps each lazily exported name to its defining
    module. ``__getattr__`` imports that module on first access and
    stores the value in the package's globals, so later lookups skip
    the hook; ``__dir__`` lists the lazy names beside the bound ones.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module_name = lazy_attrs.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(lazy_attrs))

    return __getattr__, __dir__
