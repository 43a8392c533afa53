"""Pluggable search-kernel backends for :class:`SearchEngine`.

This package is the algorithmic substrate of the search layer: the
engine owns caching and per-phase stats, and delegates each of the
seven primitive searches to a :class:`SearchKernel` backend.
``python`` is the reference heapq implementation; ``vectorized`` runs
the dense primitives on scipy's compiled csgraph Dijkstra over the
CSR's numpy views, with the query balls of Algorithm 2 run as
tile-local dense calls.  Both obey the relaxation-order contract
documented in :mod:`.base` — results are bit-identical, so the choice
of backend changes speed, never a result.

``vectorized`` is the default: it is faster on every benchmark city
and at paper scale, the query balls included (Chicago at 1.0: 3.2-3.7 s
against 13-16 s for ``python`` per Algorithm 2 run, 2-core x86 box).
``python`` stays as the bit-identity oracle the equivalence suites
compare against.

Architecture note: nothing outside ``network/engine.py`` may import
from this package (reprolint rule RL009).  A backend is picked by
*name* where an engine is built — ``SearchEngine(network,
kernel=...)``, else the ``REPRO_KERNEL`` environment variable — and the
engine re-exports :func:`available_kernels` / :func:`resolve_kernel`
for anything that needs to validate a name.
"""

from __future__ import annotations

import os
from typing import Dict, List, Type, Union

from ...exceptions import ConfigurationError
from .base import SearchKernel
from .python import PythonKernel
from .vectorized import VectorizedKernel

__all__ = [
    "SearchKernel",
    "PythonKernel",
    "VectorizedKernel",
    "DEFAULT_KERNEL",
    "ENV_VAR",
    "KERNEL_IDS",
    "available_kernels",
    "resolve_kernel",
]

#: Environment variable consulted when no explicit kernel is given.
ENV_VAR = "REPRO_KERNEL"

#: The backend used when neither a name nor ``$REPRO_KERNEL`` is given.
DEFAULT_KERNEL = "vectorized"

_FACTORIES: Dict[str, Type[SearchKernel]] = {
    PythonKernel.name: PythonKernel,
    VectorizedKernel.name: VectorizedKernel,
}

#: Stable numeric ids for the ``search.kernel`` metrics gauge.
KERNEL_IDS: Dict[str, int] = {name: i for i, name in enumerate(sorted(_FACTORIES))}


def available_kernels() -> List[str]:
    """Names of the registered backends, sorted."""
    return sorted(_FACTORIES)


def resolve_kernel(spec: Union[str, SearchKernel, None]) -> SearchKernel:
    """Turn a kernel spec into a backend instance.

    ``None`` falls back to ``$REPRO_KERNEL``, then to the default; a
    string is looked up in the registry; anything else is assumed to be
    a kernel instance already and returned as-is (the escape hatch for
    experiments — named backends are the supported surface).

    Raises:
        ConfigurationError: for unknown names, listing the valid
            choices and naming ``$REPRO_KERNEL`` when the bad value
            came from the environment (a typo'd export must not
            surface as a mystery deep inside the engine).
    """
    source = ""
    if spec is None:
        env_value = os.environ.get(ENV_VAR, "").strip()
        spec = env_value or DEFAULT_KERNEL
        if env_value:
            source = f" (from ${ENV_VAR})"
    if not isinstance(spec, str):
        return spec
    spec = spec.strip()
    try:
        factory = _FACTORIES[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown search kernel {spec!r}{source}; available: "
            f"{', '.join(available_kernels())}"
        ) from None
    return factory()
