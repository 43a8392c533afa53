"""The road network data structure (Definition 1 of the paper).

A :class:`RoadNetwork` is a connected undirected graph whose nodes are
integers ``0..n-1`` with finite planar coordinates and whose edges carry
a positive, finite cost (kilometres by convention, but any
user-preferred cost such as travel time works — see Definition 1).
A network is immutable once built: every network comes from the
constructor (the generators, the DIMACS loader, :meth:`subgraph`), so a
search engine's CSR snapshot and cached rows never go stale.

The representation is a compact adjacency list: ``_adj[u]`` is a list of
``(v, cost)`` pairs.  Node ids being dense integers lets every algorithm
in the package use plain Python lists instead of dictionaries for its
per-node state, which matters for pure-Python performance on graphs
with 10^4-10^5 nodes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..exceptions import GraphError
from .geometry import Point, euclidean

Edge = Tuple[int, int, float]


class RoadNetwork:
    """A connected undirected road network with planar node coordinates.

    Args:
        coordinates: planar ``(x, y)`` position of each node, indexed by
            node id.  Units are kilometres by convention so that the
            Euclidean metric lower-bounds edge costs.
        edges: iterable of ``(u, v, cost)`` triples with
            ``0 < cost < inf``.  Parallel edges are collapsed to the
            cheapest; self loops are rejected.
        validate_connected: verify the graph is connected (Definition 1
            requires it).  Disable only for intermediate construction.
    """

    def __init__(
        self,
        coordinates: Sequence[Point],
        edges: Iterable[Edge],
        *,
        validate_connected: bool = True,
    ) -> None:
        self._coords: List[Point] = [(float(x), float(y)) for x, y in coordinates]
        n = len(self._coords)
        if n == 0:
            raise GraphError("a road network needs at least one node")
        for node, (x, y) in enumerate(self._coords):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GraphError(f"node {node} has non-finite coordinate ({x}, {y})")
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        seen: Dict[Tuple[int, int], float] = {}
        for u, v, cost in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self loop at node {u} is not allowed")
            if not 0.0 < cost < math.inf:
                # The search kernels assume strictly positive, finite
                # costs (NaN fails both tests).
                raise GraphError(
                    f"edge ({u}, {v}) has non-positive or non-finite cost {cost}"
                )
            key = (u, v) if u < v else (v, u)
            prev = seen.get(key)
            if prev is None or cost < prev:
                seen[key] = float(cost)
        for (u, v), cost in seen.items():
            self._adj[u].append((v, cost))
            self._adj[v].append((u, cost))
        self._edge_costs: Dict[Tuple[int, int], float] = seen
        if validate_connected and not self.is_connected():
            raise GraphError("road network must be connected (Definition 1)")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._edge_costs)

    def nodes(self) -> range:
        """All node ids."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[Edge]:
        """Iterate over undirected edges as ``(u, v, cost)`` with u < v."""
        for (u, v), cost in self._edge_costs.items():
            yield (u, v, cost)

    def neighbors(self, node: int) -> List[Tuple[int, float]]:
        """The ``(neighbor, cost)`` list of ``node``.

        The returned list is the internal one; callers must not mutate it.
        """
        return self._adj[node]

    def degree(self, node: int) -> int:
        """Number of incident edges of ``node``."""
        return len(self._adj[node])

    def coordinate(self, node: int) -> Point:
        """Planar position of ``node``."""
        return self._coords[node]

    def coordinates(self) -> List[Point]:
        """Positions of all nodes, indexed by node id (a copy)."""
        return list(self._coords)

    def edge_cost(self, u: int, v: int) -> float:
        """Cost of edge ``(u, v)``.

        Raises:
            GraphError: if the edge does not exist.
        """
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_costs[key]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge ``(u, v)`` exists."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_costs

    def euclidean_distance(self, u: int, v: int) -> float:
        """Straight-line distance between two nodes; a lower bound of the
        network distance because edge costs are at least the Euclidean
        gap between their endpoints in all generators and loaders."""
        return euclidean(self._coords[u], self._coords[v])

    def total_edge_cost(self) -> float:
        """Sum of all edge costs (total road length)."""
        return sum(self._edge_costs.values())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0 (iterative DFS)."""
        n = self.num_nodes
        if n <= 1:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    def connected_components(self) -> List[List[int]]:
        """All connected components as lists of node ids."""
        n = self.num_nodes
        seen = [False] * n
        components: List[List[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                u = stack.pop()
                for v, _ in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            components.append(comp)
        return components

    def path_cost(self, path: Sequence[int]) -> float:
        """Cost of a node path (Definition 2): sum of its edge costs.

        Raises:
            GraphError: if consecutive nodes are not adjacent.
        """
        return sum(self.edge_cost(path[i], path[i + 1]) for i in range(len(path) - 1))

    def is_path(self, path: Sequence[int]) -> bool:
        """Whether ``path`` is a valid path (consecutive nodes adjacent)."""
        if len(path) == 0:
            return False
        try:
            self.path_cost(path)
        except GraphError:
            return False
        return True

    def subgraph(self, nodes: Sequence[int]) -> Tuple["RoadNetwork", List[int]]:
        """Induced subgraph on ``nodes`` (largest component is kept so the
        result satisfies the connectivity requirement).

        Returns:
            A pair ``(network, original_ids)`` where ``original_ids[i]``
            is the id in ``self`` of node ``i`` in the new network.
        """
        keep = sorted(set(nodes))
        remap = {orig: new for new, orig in enumerate(keep)}
        coords = [self._coords[orig] for orig in keep]
        edges = []
        for (u, v), cost in self._edge_costs.items():
            if u in remap and v in remap:
                edges.append((remap[u], remap[v], cost))
        candidate = RoadNetwork(coords, edges, validate_connected=False)
        components = candidate.connected_components()
        largest = max(components, key=len)
        if len(largest) == candidate.num_nodes:
            return candidate, keep
        inner_keep = sorted(largest)
        inner_map = {orig: new for new, orig in enumerate(inner_keep)}
        coords2 = [coords[orig] for orig in inner_keep]
        edges2 = [
            (inner_map[u], inner_map[v], cost)
            for (u, v, cost) in candidate.edges()
            if u in inner_map and v in inner_map
        ]
        network = RoadNetwork(coords2, edges2, validate_connected=True)
        original_ids = [keep[orig] for orig in inner_keep]
        return network, original_ids

    def __repr__(self) -> str:
        return f"RoadNetwork(|V|={self.num_nodes}, |E|={self.num_edges})"

