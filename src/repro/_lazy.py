"""Lazy package namespaces (PEP 562).

A package ``__init__`` declares which submodule defines each public
name; nothing is imported until a name is first read.  A serving run
that touches ``repro.serve`` and ``repro.control`` therefore never
loads the training, quantization or design-space-exploration code the
paper experiments need::

    _EXPORTS = {
        ".params": ("ArchConfig", "EDEA_CONFIG"),
        ".functional": ("functional",),  # the submodule itself
    }
    __all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

A name equal to its submodule's own name resolves to that submodule.
Each resolved value is cached in the package globals, so later reads
are ordinary attribute lookups.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any],
    exports: Mapping[str, tuple[str, ...]],
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """Build ``(__all__, __getattr__, __dir__)`` for a package.

    Args:
        namespace: The package's ``globals()``; resolved names are
            stored there.
        exports: Relative submodule name -> the public names it defines.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module_name = origin.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(module_name, package)
        if module.__name__ == f"{package}.{name}":
            value = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
