"""PEP 562 lazy exports for package ``__init__`` modules.

A package declares which submodule defines each of its public names.  Nothing
is imported up front: the first lookup of a name imports its submodule and
binds the value on the package, so later lookups are plain attribute reads.
Submodules themselves resolve as attributes too (``repro.nn`` after a bare
``import repro``), exactly as they did when the ``__init__`` imported them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the public
    names it defines.
    """
    origin: Dict[str, str] = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in origin:
            value = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
