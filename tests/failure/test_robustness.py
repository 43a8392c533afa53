"""Failure injection and adversarial-input robustness.

Every failure mode must surface as a typed :class:`ReproError`
subclass with a useful message — never a bare ``KeyError``/``IndexError``
from deep inside an algorithm — and every weird-but-legal input must
produce a legal route.
"""

import math

import numpy as np
import pytest

from repro import (
    BRRInstance,
    ConfigurationError,
    DemandError,
    EBRRConfig,
    GraphError,
    InfeasibleRouteError,
    ReproError,
    TransitError,
    plan_route,
)
from repro.datasets import load_city
from repro.demand.query import QuerySet
from repro.eval.experiments import calibrated_alpha
from repro.network.graph import RoadNetwork
from repro.transit.network import TransitNetwork
from repro.transit.route import BusRoute

from ..conftest import TOY_COORDS, TOY_EDGES, V1, V2, V3, V4, V5


class TestTypedErrors:
    def test_every_error_is_repro_error(self):
        for exc in (ConfigurationError, DemandError, GraphError, TransitError):
            assert issubclass(exc, ReproError)

    def test_error_messages_carry_context(self, toy_network):
        with pytest.raises(GraphError, match="no edge between 0 and 7"):
            toy_network.edge_cost(0, 7)
        with pytest.raises(DemandError, match="99"):
            QuerySet(toy_network, [99])


class TestAdversarialGraphs:
    def _instance(self, network, stops, queries, candidates=None):
        routes = [BusRoute(f"r{i}", [s]) for i, s in enumerate(stops)]
        transit = TransitNetwork(network, routes)
        return BRRInstance(
            transit,
            QuerySet(network, queries),
            candidates=candidates,
            alpha=1.0,
        )

    def test_star_graph(self):
        """Hub-and-spoke: everything routes through node 0."""
        n = 12
        coords = [(0.0, 0.0)] + [
            (math.cos(i), math.sin(i)) for i in range(1, n)
        ]
        edges = [(0, i, 1.0) for i in range(1, n)]
        network = RoadNetwork(coords, edges)
        instance = self._instance(network, [1], list(range(2, n)))
        config = EBRRConfig(max_stops=4, max_adjacent_cost=2.5, alpha=1.0)
        result = plan_route(instance, config)
        assert result.route.num_stops <= 4
        assert result.metrics.utility >= 0

    def test_long_chain(self):
        """A path graph: the route must march along the chain."""
        n = 30
        coords = [(float(i), 0.0) for i in range(n)]
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        network = RoadNetwork(coords, edges)
        instance = self._instance(network, [0], [n - 1, n - 2, n - 3])
        config = EBRRConfig(max_stops=6, max_adjacent_cost=3.0, alpha=1.0)
        result = plan_route(instance, config)
        assert result.is_feasible
        costs = result.route.adjacent_stop_costs(network)
        assert all(c <= 3.0 + 1e-9 for c in costs)

    def test_complete_graph(self):
        n = 10
        coords = [(math.cos(i * 0.63), math.sin(i * 0.63)) for i in range(n)]
        edges = [
            (i, j, 2.0 + 0.01 * (i + j)) for i in range(n) for j in range(i + 1, n)
        ]
        network = RoadNetwork(coords, edges)
        instance = self._instance(network, [0], [5, 6, 7])
        config = EBRRConfig(max_stops=5, max_adjacent_cost=2.5, alpha=1.0)
        result = plan_route(instance, config)
        assert result.route.num_stops <= 5

    def test_two_node_network(self):
        network = RoadNetwork([(0, 0), (1, 0)], [(0, 1, 1.0)])
        instance = self._instance(network, [0], [1, 1, 1])
        config = EBRRConfig(max_stops=2, max_adjacent_cost=1.5, alpha=1.0)
        result = plan_route(instance, config)
        assert set(result.route.stops) <= {0, 1}

    def _two_chains(self):
        """Two 10-node unit chains 50 km apart (nodes 0-9 and 10-19),
        with an existing stop at the head of each."""
        coords = [(float(i), 0.0) for i in range(10)]
        coords += [(float(i), 50.0) for i in range(10)]
        edges = [(i, i + 1, 1.0) for i in range(9)]
        edges += [(i, i + 1, 1.0) for i in range(10, 19)]
        return RoadNetwork(coords, edges, validate_connected=False)

    def test_disconnected_demand_in_both_components_raises(self):
        network = self._two_chains()
        instance = self._instance(network, [0, 10], [6, 7, 8, 9, 16, 17, 18, 19])
        config = EBRRConfig(max_stops=4, max_adjacent_cost=2.5, alpha=1.0)
        with pytest.raises(
            InfeasibleRouteError,
            match="stop 17 cannot reach the selected set — disconnected network",
        ):
            plan_route(instance, config)

    def test_disconnected_demand_in_one_component_plans_inside_it(self):
        network = self._two_chains()
        instance = self._instance(network, [0, 10], [5, 6, 7, 8, 9])
        config = EBRRConfig(max_stops=4, max_adjacent_cost=2.5, alpha=1.0)
        result = plan_route(instance, config)
        assert result.route.stops == (8, 7, 6, 5)
        assert set(result.route.path) <= set(range(10))

    def test_unreachable_stop_past_the_walk_break_does_not_raise(
        self, monkeypatch
    ):
        """A query at node 12 puts the second chain's stops in the
        RQueue under the first chain's.  The walk evaluates the queue in
        batches, so a batch prices them (``0``: no path to ``B``), but
        the walk breaks before it reaches them, and only a walked entry
        may raise."""
        from repro.core.selection import SelectionState

        network = self._two_chains()
        instance = self._instance(network, [0, 10], [3, 5, 5, 9, 12])
        config = EBRRConfig(max_stops=5, max_adjacent_cost=2.5, alpha=1.0)
        batches = []
        true_prices = SelectionState.true_prices

        def spy(state, stops):
            prices = true_prices(state, stops)
            batches.append(dict(zip(np.asarray(stops).tolist(), prices.tolist())))
            return prices

        monkeypatch.setattr(SelectionState, "true_prices", spy)
        result = plan_route(instance, config)
        assert result.route.stops == (2, 3, 5, 7, 9)
        assert any(len(batch) > 1 and batch.get(12) == 0 for batch in batches)


class TestDegenerateDemand:
    def test_all_demand_on_one_node(self, toy_transit, toy_network):
        instance = BRRInstance(
            toy_transit,
            QuerySet(toy_network, [V5] * 100),
            candidates=[V3, V4, V5],
            alpha=1.0,
        )
        config = EBRRConfig(max_stops=3, max_adjacent_cost=4.0, alpha=1.0)
        result = plan_route(instance, config)
        # The single demand centre must be served (v5 selected).
        assert V5 in result.route.stops

    def test_demand_only_on_existing_stops(self, toy_transit, toy_network):
        """Zero walking gain anywhere: route still valid, driven by
        connectivity alone."""
        instance = BRRInstance(
            toy_transit,
            QuerySet(toy_network, [V1, V2, V1]),
            candidates=[V3, V4, V5],
            alpha=1.0,
        )
        config = EBRRConfig(max_stops=3, max_adjacent_cost=4.0, alpha=1.0)
        result = plan_route(instance, config)
        assert result.metrics.walk_decrease == pytest.approx(0.0)
        assert result.metrics.connectivity >= 1


class TestExtremeParameters:
    def test_k_larger_than_stop_universe(self, toy_instance):
        config = EBRRConfig(max_stops=50, max_adjacent_cost=4.0, alpha=1.0)
        result = plan_route(toy_instance, config)
        # Only 5 legal stop locations exist.
        assert result.route.num_stops <= 5

    def test_c_smaller_than_every_edge(self, toy_instance):
        """C = 0.5 < min edge cost 3: no two stops can ever be linked;
        EBRR must fail loudly or return a single-leg-violating route,
        never hang or crash deep."""
        config = EBRRConfig(max_stops=3, max_adjacent_cost=0.5, alpha=1.0)
        try:
            result = plan_route(toy_instance, config)
        except ReproError:
            return  # loud typed failure is acceptable
        assert not result.is_feasible  # otherwise it must be flagged

    def test_huge_c_no_restriction(self, toy_instance):
        """Huge C reduces BRR to cardinality-only submodular max (the
        NP-hardness reduction's regime)."""
        config = EBRRConfig(max_stops=4, max_adjacent_cost=1e6, alpha=1.0)
        result = plan_route(toy_instance, config)
        assert result.is_feasible

    def test_tiny_and_huge_alpha(self, toy_transit, toy_queries):
        for alpha in (1e-9, 1e9):
            instance = BRRInstance(
                toy_transit, toy_queries, candidates=[V3, V4, V5], alpha=alpha
            )
            config = EBRRConfig(max_stops=4, max_adjacent_cost=4.0, alpha=alpha)
            result = plan_route(instance, config)
            assert result.route.num_stops >= 1
        # Huge alpha: connectivity dominates -> existing stops chosen.
        assert result.metrics.connectivity == 4

    def test_k_equals_two(self, toy_instance):
        config = EBRRConfig(max_stops=2, max_adjacent_cost=4.0, alpha=1.0)
        result = plan_route(toy_instance, config)
        assert result.route.num_stops <= 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_c_rejected(self, bad):
        """C = NaN used to pass validation and die in price_from_distance
        (math.ceil(nan)) with a bare ValueError; C = inf passed too."""
        with pytest.raises(ConfigurationError, match="max_adjacent_cost"):
            EBRRConfig(max_stops=3, max_adjacent_cost=bad, alpha=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_alpha_rejected(
        self, bad, toy_transit, toy_queries
    ):
        """α = NaN used to pass BRRInstance (``alpha <= 0`` is False for
        NaN) and plan a route with utility NaN, since plan_route's
        agreement guard is False for NaN too; α = inf failed later with
        InfeasibleRouteError.  calibrated_alpha's balance took both."""
        with pytest.raises(ConfigurationError, match="alpha"):
            EBRRConfig(max_stops=3, max_adjacent_cost=4.0, alpha=bad)
        with pytest.raises(ConfigurationError, match="alpha"):
            BRRInstance(toy_transit, toy_queries, alpha=bad)
        with pytest.raises(ConfigurationError, match="balance"):
            calibrated_alpha(load_city("orlando", scale=0.05), balance=bad)


class TestDisconnectedInputs:
    def test_query_cannot_reach_stop(self):
        """Disconnected component with demand but no stop: preprocessing
        must raise GraphError, not loop forever."""
        coords = [(0, 0), (1, 0), (9, 9), (10, 9)]
        edges = [(0, 1, 1.0), (2, 3, 1.0)]
        network = RoadNetwork(coords, edges, validate_connected=False)
        transit = TransitNetwork(network, [BusRoute("r", [0])])
        instance = BRRInstance(
            transit, QuerySet(network, [2]), candidates=[1, 3], alpha=1.0
        )
        config = EBRRConfig(max_stops=2, max_adjacent_cost=2.0, alpha=1.0)
        with pytest.raises(GraphError):
            plan_route(instance, config)


class TestNonFiniteInputs:
    """NaN and inf costs or coordinates are rejected at construction:
    the connectivity check ignores costs, so such a network would
    otherwise build and leave nodes unreachable for every kernel."""

    PATH_COORDS = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_constructor_rejects_non_finite_cost(self, cost):
        with pytest.raises(GraphError, match=r"edge \(0, 1\)"):
            RoadNetwork(self.PATH_COORDS, [(0, 1, cost), (1, 2, 1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_rejects_non_finite_coordinate(self, bad):
        coords = [(0.0, 0.0), (bad, 0.0), (2.0, 0.0)]
        with pytest.raises(GraphError, match="node 1"):
            RoadNetwork(coords, [(0, 1, 1.0), (1, 2, 1.0)])

    @staticmethod
    def _dimacs(tmp_path, arc_cost="5", vertex="v 2 1000 0"):
        gr = tmp_path / "t.gr"
        co = tmp_path / "t.co"
        gr.write_text(f"p sp 3 2\na 1 2 {arc_cost}\na 2 3 5\n")
        co.write_text(f"p aux sp co 3\nv 1 0 0\n{vertex}\nv 3 2000 0\n")
        return gr, co

    @pytest.mark.parametrize("arc_cost", ["nan", "inf", "0", "-5"])
    def test_dimacs_bad_arc_cost_names_path_and_line(self, tmp_path, arc_cost):
        from repro.exceptions import DataFormatError
        from repro.network.dimacs import read_dimacs

        gr, co = self._dimacs(tmp_path, arc_cost=arc_cost)
        with pytest.raises(DataFormatError, match=r"t\.gr:2: arc cost"):
            read_dimacs(gr, co)

    @pytest.mark.parametrize("vertex", ["v 2 nan 0", "v 2 1000 inf"])
    def test_dimacs_non_finite_coordinate_names_path_and_line(
        self, tmp_path, vertex
    ):
        from repro.exceptions import DataFormatError
        from repro.network.dimacs import read_dimacs

        gr, co = self._dimacs(tmp_path, vertex=vertex)
        with pytest.raises(DataFormatError, match=r"t\.co:3: non-finite"):
            read_dimacs(gr, co)


class TestCorruptFiles:
    def test_truncated_dimacs(self, tmp_path):
        from repro.exceptions import DataFormatError
        from repro.network.dimacs import read_dimacs

        gr = tmp_path / "t.gr"
        co = tmp_path / "t.co"
        gr.write_text("p sp 2 2\na 1 2")  # truncated arc line
        co.write_text("p aux sp co 2\nv 1 0 0\nv 2 1 1\n")
        with pytest.raises(DataFormatError):
            read_dimacs(gr, co)

    def test_binary_garbage_transit(self, toy_network, tmp_path):
        from repro.exceptions import DataFormatError
        from repro.transit.gtfs import load_transit

        (tmp_path / "routes.csv").write_bytes(b"\x00\xff\x00binary")
        with pytest.raises((DataFormatError, UnicodeDecodeError)):
            load_transit(toy_network, tmp_path)

    def test_empty_routes_file(self, toy_network, tmp_path):
        from repro.exceptions import DataFormatError
        from repro.transit.gtfs import load_transit

        (tmp_path / "routes.csv").write_text("")
        with pytest.raises(DataFormatError):
            load_transit(toy_network, tmp_path)
