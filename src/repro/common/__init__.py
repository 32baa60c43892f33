"""Shared primitives used across the SDR-RDMA reproduction.

This package contains the pieces every layer of the stack needs:

* :mod:`repro.common.units` -- byte/bandwidth/distance unit helpers and the
  speed-of-light-in-fiber conversion used throughout the paper's analysis.
* :mod:`repro.common.bitmap` -- the NumPy-backed :class:`Bitmap` that backs
  both the SDR backend per-packet bitmap and the frontend chunk bitmap.
* :mod:`repro.common.config` -- validated configuration dataclasses shared by
  the network model, the SDR SDK and the reliability layers.
* :mod:`repro.common.errors` -- the exception hierarchy.
* :func:`lazy_exports` and :class:`Registry` (here) -- what a run does not
  execute loads on first use (``docs/simulation.md``, "What a fresh
  process pays").
"""

from importlib import import_module

from repro.common.bitmap import Bitmap
from repro.common.config import (
    ChannelConfig,
    DpaConfig,
    SdrConfig,
    default_wan_channel,
)
from repro.common.errors import (
    ConfigError,
    ReproError,
    ResourceError,
    SdrStateError,
)
from repro.common.units import (
    GiB,
    KiB,
    MiB,
    Gbit,
    Mbit,
    Tbit,
    bytes_per_second,
    distance_to_rtt,
    injection_time,
    rtt_to_distance,
)

__all__ = [
    "Bitmap",
    "ChannelConfig",
    "ConfigError",
    "DpaConfig",
    "GiB",
    "Gbit",
    "KiB",
    "MiB",
    "Mbit",
    "Registry",
    "ReproError",
    "ResourceError",
    "SdrConfig",
    "SdrStateError",
    "Tbit",
    "bytes_per_second",
    "default_wan_channel",
    "distance_to_rtt",
    "injection_time",
    "lazy_exports",
    "rtt_to_distance",
]


def lazy_exports(package: str, namespace: dict, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package`` (PEP 562), where
    ``exports`` maps a submodule to the names it lends the package.  A name
    is imported when first read, then cached in ``namespace`` (the
    package's ``globals()``).
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__


class Registry(dict):
    """A name -> entry table.  ``builtins`` maps each built-in name, in a
    fixed order, to the module whose import registers it; ``table[name]``
    imports that module on a miss and retries."""

    def __init__(self, builtins: dict[str, str]):
        super().__init__()
        self.builtins = builtins

    def __missing__(self, name: str):
        if name not in self.builtins:
            raise KeyError(name)
        import_module(self.builtins[name])
        return dict.__getitem__(self, name)

    def names(self) -> list[str]:
        """Every name a lookup can find, loaded or not, sorted."""
        return sorted({*self, *self.builtins})

    def complete(self) -> dict:
        """Every entry: the built-ins in their fixed order, then the rest as
        registered.  Imports each built-in's module."""
        return {name: self[name] for name in self.builtins} | self
