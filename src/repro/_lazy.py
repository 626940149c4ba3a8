"""Lazy re-exports for package ``__init__`` modules.

A package lists what it re-exports, grouped by the submodule that
defines each name, and installs the returned module ``__getattr__``
and ``__dir__`` (PEP 562)::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".machine": ("VirtualMachine",),
        ".translate": ("translate_program",),
    })

Importing the package then loads none of its submodules; the first
access to a name imports the one submodule that defines it and caches
the object in the package namespace.  ``from package import name``,
``dir(package)`` and ``__all__`` behave exactly as with eager imports,
so a process pays only for the submodules its request actually uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, groups: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` serving ``groups`` (relative
    submodule -> names it defines) for the package named ``package``."""
    owner = {name: module for module, names in groups.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
