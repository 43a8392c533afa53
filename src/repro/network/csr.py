"""Flat CSR (compressed sparse row) adjacency of a road network.

Every search in :mod:`repro.network.engine` iterates edges through this
structure instead of calling :meth:`RoadNetwork.neighbors` per settled
node.  The three parallel lists — ``indptr``, ``targets``, ``costs`` —
are built once per network (a network is immutable), so the hot inner
loop touches only local list indexing (no method call, no tuple
unpacking).

The neighbor order inside each row is **exactly** the order of
``network.neighbors(u)``, so heap tie-breaking is fixed by the graph
alone and every kernel backend settles nodes in the same order (the
relaxation-order contract of :mod:`repro.network.kernels.base`).

One snapshot serves **both** kernel backends.  The python kernel reads
the list views positionally (plain list indexing is CPython's fastest
per-element access, and it keeps every cost a native ``float`` — numpy
indexing would box ``np.float64`` scalars into the heaps and the
results); the vectorized kernel reads the numpy views (``np_indptr`` /
``np_targets`` / ``np_costs``), which are materialised from the lists
at most once and cached on the snapshot, so backends share one build.
The vectorized kernel also reads ``np_coords``, the node coordinates
as an array (cached the same way), to group query balls by spatial
tile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .graph import RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy


class CSRAdjacency:
    """Flat adjacency arrays of one :class:`RoadNetwork` snapshot.

    Attributes:
        indptr: ``indptr[u]:indptr[u+1]`` is node ``u``'s slice of the
            edge arrays (length ``num_nodes + 1``).
        targets: flat neighbor node ids.
        costs: flat edge costs, aligned with ``targets``.
        num_nodes: node count of the snapshot.
    """

    __slots__ = (
        "indptr",
        "targets",
        "costs",
        "num_nodes",
        "_network",
        "_np_views",
        "_np_coords",
    )

    def __init__(self, network: RoadNetwork) -> None:
        n = network.num_nodes
        indptr: List[int] = [0] * (n + 1)
        targets: List[int] = []
        costs: List[float] = []
        for u in range(n):
            for v, cost in network.neighbors(u):
                targets.append(v)
                costs.append(cost)
            indptr[u + 1] = len(targets)
        self.indptr = indptr
        self.targets = targets
        self.costs = costs
        self.num_nodes = n
        self._network = network
        self._np_views: Optional[
            Tuple["numpy.ndarray", "numpy.ndarray", "numpy.ndarray"]
        ] = None
        self._np_coords: Optional["numpy.ndarray"] = None

    @property
    def network(self) -> RoadNetwork:
        """The network this snapshot was built from."""
        return self._network

    def _numpy_views(
        self,
    ) -> Tuple["numpy.ndarray", "numpy.ndarray", "numpy.ndarray"]:
        views = self._np_views
        if views is None:
            import numpy as np

            views = (
                np.asarray(self.indptr, dtype=np.int64),
                np.asarray(self.targets, dtype=np.int32),
                np.asarray(self.costs, dtype=np.float64),
            )
            self._np_views = views
        return views

    @property
    def np_indptr(self) -> "numpy.ndarray":
        """``indptr`` as an int64 array (built once, cached)."""
        return self._numpy_views()[0]

    @property
    def np_targets(self) -> "numpy.ndarray":
        """``targets`` as an int32 array (built once, cached)."""
        return self._numpy_views()[1]

    @property
    def np_costs(self) -> "numpy.ndarray":
        """``costs`` as a float64 array (built once, cached)."""
        return self._numpy_views()[2]

    @property
    def np_coords(self) -> "numpy.ndarray":
        """Node coordinates as an ``(n, 2)`` float64 array (built once,
        cached)."""
        coords = self._np_coords
        if coords is None:
            import numpy as np

            coords = np.asarray(self._network.coordinates(), dtype=np.float64)
            self._np_coords = coords
        return coords

    @property
    def num_directed_edges(self) -> int:
        """Number of directed arcs (twice the undirected edge count)."""
        return len(self.targets)

    def degree(self, node: int) -> int:
        """Out-degree of ``node`` in the snapshot."""
        return self.indptr[node + 1] - self.indptr[node]

    def __repr__(self) -> str:
        return f"CSRAdjacency(|V|={self.num_nodes}, arcs={self.num_directed_edges})"
