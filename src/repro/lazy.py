"""Lazy package exports (PEP 562): a public name imports its module on first use.

A package ``__init__`` that imports its submodules eagerly makes every
``import repro.<anything>`` pay for the whole package: numpy and about a
hundred modules before the caller's first line runs.  ``repro query``
needs a handful of small modules to send one HTTP request.  So packages
declare where each public name lives, and :func:`lazy_exports` builds
the module-level ``__getattr__``/``__dir__`` pair that imports it when
it is first read::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.service.core": ("ExperimentService", "ServiceConfig"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

from repro.errors import UnknownNameError


def lazy_exports(package: str, where: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of ``package``.

    ``where`` maps a module to the public names ``package`` re-exports
    from it.  An unknown name raises
    :class:`~repro.errors.UnknownNameError`, an ``AttributeError``, so
    ``hasattr`` answers False and ``from package import submodule``
    falls back to importing the submodule.
    """
    home = {name: module for module, names in where.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise UnknownNameError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
