"""The BRR problem instance and its exact objective functions.

:class:`BRRInstance` bundles everything Definition 10 names — the road
network ``G``, the existing routes ``R_existing`` (giving ``S_existing``
and ``routes(v)``), the query multiset ``Q``, and the candidate set
``S_new`` — and provides *exact* evaluations of:

* ``Walk(S)`` (Definition 6) via one multi-source Dijkstra,
* ``Connect(B)`` (Definition 7) via the transit bitmasks,
* the utility ``U(B)`` (Definition 9, Equation 1).

These exact evaluators are the ground truth for tests, the OPT brute
force, and final-route reporting.  The EBRR selection loop itself uses
the incremental structures of :mod:`repro.core.preprocess` instead —
that is the paper's whole point — but both must agree, and the test
suite checks that they do.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

from ..demand.query import QuerySet
from ..exceptions import ConfigurationError, DemandError
from ..network.candidates import node_candidates
from ..network.engine import engine_for
from ..network.graph import RoadNetwork
from ..transit.network import TransitNetwork


class BRRInstance:
    """One Bus Routing on Roads problem instance.

    Args:
        transit: the existing transit network (supplies the road network
            and ``S_existing``).
        queries: the query multiset ``Q``.
        candidates: the candidate locations ``S_new``.  ``None`` uses
            every non-stop network node (see
            :mod:`repro.network.candidates`).  Must be disjoint from
            ``S_existing``.
        alpha: the utility trade-off ``α`` (must be positive and finite).
    """

    def __init__(
        self,
        transit: TransitNetwork,
        queries: QuerySet,
        *,
        candidates: Optional[Sequence[int]] = None,
        alpha: float = 1.0,
    ) -> None:
        # Written as 0 < x < inf so that NaN fails too (as in EBRRConfig).
        if not 0.0 < alpha < math.inf:
            raise ConfigurationError(
                f"alpha must be positive and finite, got {alpha}"
            )
        if queries.network is not transit.road_network:
            raise DemandError("queries and transit must share the road network")
        self.transit = transit
        self.network: RoadNetwork = transit.road_network
        self.queries = queries
        self.alpha = float(alpha)

        existing = set(transit.existing_stops)
        if candidates is None:
            candidate_list = node_candidates(self.network, transit.existing_stops)
        else:
            candidate_list = [int(v) for v in candidates]
            overlap = existing.intersection(candidate_list)
            if overlap:
                raise ConfigurationError(
                    f"S_new must be disjoint from S_existing; overlap: "
                    f"{sorted(overlap)[:5]}..."
                )
        self.candidates: List[int] = sorted(set(candidate_list))
        self.existing_stops: List[int] = sorted(existing)

        n = self.network.num_nodes
        self.is_existing: List[bool] = [False] * n
        for v in self.existing_stops:
            self.is_existing[v] = True
        self.is_candidate: List[bool] = [False] * n
        for v in self.candidates:
            self.is_candidate[v] = True

        #: multiplicity of each distinct query node in Q
        self.query_counts: Dict[int, int] = dict(Counter(queries.nodes))
        self._baseline_walk: Optional[float] = None

    # ------------------------------------------------------------------
    # Exact objective evaluation
    # ------------------------------------------------------------------

    def walk(self, stops: Iterable[int]) -> float:
        """``Walk(S)``: sum over the multiset ``Q`` of each query node's
        distance to its nearest stop in ``S`` (Definition 6)."""
        sources = list(stops)
        if not sources:
            raise ConfigurationError("Walk(S) is undefined for an empty stop set")
        dist = engine_for(self.network).multi_source(sources, phase="evaluate")
        total = 0.0
        for node, count in self.query_counts.items():
            d = dist[node]
            if not math.isfinite(d):
                raise DemandError(
                    f"query node {node} cannot reach any stop — disconnected input"
                )
            total += count * d
        return total

    def baseline_walk(self) -> float:
        """``Walk(S_existing)`` — the constant first term of the utility
        (cached after the first call)."""
        if self._baseline_walk is None:
            self._baseline_walk = self.walk(self.existing_stops)
        return self._baseline_walk

    def walk_decrease(self, new_stops: Iterable[int]) -> float:
        """``Walk(S_existing) − Walk(S_existing ∪ B)`` for ``B``."""
        union = list(self.existing_stops)
        union.extend(new_stops)
        return self.baseline_walk() - self.walk(union)

    def connectivity(self, stops: Iterable[int]) -> int:
        """``Connect(B)`` (Definition 7)."""
        return self.transit.connectivity(stops)

    def utility(self, stops: Iterable[int]) -> float:
        """The utility ``U(B)`` of Equation 1."""
        stop_list = list(stops)
        if not stop_list:
            return 0.0
        self._check_members(stop_list)
        return self.walk_decrease(stop_list) + self.alpha * self.connectivity(stop_list)

    def marginal_utility(self, stop: int, base: Iterable[int]) -> float:
        """``ΔU_B(v) = U(B ∪ {v}) − U(B)`` computed exactly (two full
        evaluations; meant for tests and the OPT brute force)."""
        base_list = list(base)
        return self.utility(base_list + [stop]) - self.utility(base_list)

    def _check_members(self, stops: Sequence[int]) -> None:
        for v in stops:
            if not (self.is_candidate[v] or self.is_existing[v]):
                raise ConfigurationError(
                    f"stop {v} is neither a candidate nor an existing stop"
                )

    def __repr__(self) -> str:
        return (
            f"BRRInstance(|V|={self.network.num_nodes}, "
            f"|S_existing|={len(self.existing_stops)}, "
            f"|S_new|={len(self.candidates)}, |Q|={len(self.queries)}, "
            f"alpha={self.alpha})"
        )
