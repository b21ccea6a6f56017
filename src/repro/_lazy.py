"""Lazy package exports (PEP 562): a package's public names load on first access.

A package ``__init__`` names the submodule that defines each of its public names and
hands that table to :func:`lazy_exports`.  Importing the package then imports none of
its submodules: ``package.Name`` or ``from package import Name`` imports the one module
that defines ``Name``, and importing ``package.sub`` leaves the siblings of ``sub``
unloaded.  A simulator run therefore never pays for the service, the warehouse or the
HTTP event plane just because ``repro`` re-exports them.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections.abc import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """Return ``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module (an absolute dotted name) to the public names
    it provides.  A name is imported from its module on first access and then stored in
    the package's namespace, so each resolves once.  A submodule is imported when it is
    first read as an attribute (``repro.sim`` after a bare ``import repro``).  Any other
    attribute raises :class:`AttributeError`.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif importlib.util.find_spec(f"{package}.{name}") is not None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return sorted(origin), __getattr__, __dir__
