"""Lazy package exports (PEP 562) shared by every ``repro`` package.

A package lists its public names once, in a table mapping each name to the
submodule that defines it (``"submodule:attribute"`` where the public name
differs from the defining one), derives ``__all__`` from the table and
binds the ``__getattr__`` / ``__dir__`` pair :func:`lazy_exports` returns.
A submodule is imported the first time one of its names is read, so
``import repro`` or ``from repro.sim import simulate`` loads only the
modules that name needs, not every sibling.
"""

from __future__ import annotations

import importlib
from typing import Callable


def lazy_exports(
    namespace: dict, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for a package's export table.

    ``namespace`` is the package's ``globals()``; a resolved name is cached
    there, so later reads skip ``__getattr__``.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module, _, attribute = target.partition(":")
        value = getattr(importlib.import_module(f"{package}.{module}"), attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
