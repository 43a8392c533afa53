"""The oracle-equivalence contract of Algorithm 2, asserted.

``preprocess_queries`` (one multi-source label field + one batched
query-rooted ball per distinct query node) must produce preprocessing
output **equal** to the paper's per-query loop, kept as the
``per_query_preprocess`` oracle — same ``nn_distance`` / ``rnn`` /
``initial_utility`` contents *including the order of every RNN row*,
and the same RNN table arrays — and
bit-identical downstream ``EBRRResult``s, across the three synthetic
city families and both kernel backends.  Equality is exact ``==`` on
floats: query balls accumulate distances from the query side — the
reference per-query association — and the truncation radius is
forward-replayed from the label field (see DESIGN.md "Batched
preprocessing"), so in generic position the bits match.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.preprocess import per_query_preprocess, preprocess_queries
from repro.core.utility import BRRInstance
from repro.datasets import load_city
from repro.demand.generators import hotspot_demand
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city, radial_city, sprawl_city
from repro.transit.builder import build_transit_network

KERNELS = ["python", "vectorized"]
FAMILIES = ["grid", "radial", "sprawl"]


def _network(family, seed, scale=1):
    if family == "grid":
        return grid_city(5 * scale, 5 * scale, seed=seed)
    if family == "radial":
        return radial_city(
            num_boroughs=3, nodes_per_borough=40 * scale, seed=seed
        )
    return sprawl_city(num_nodes=100 * scale, seed=seed)


def _instance(family, seed, scale=1):
    network = _network(family, seed, scale)
    transit = build_transit_network(
        network, num_routes=4, seed=seed + 1, stop_spacing_km=0.8
    )
    queries = hotspot_demand(
        network, 300, num_hotspots=4, transit=transit, seed=seed + 2
    )
    return BRRInstance(transit, queries, alpha=5.0)


@st.composite
def instances(draw):
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(0, 10 ** 4))
    return _instance(family, seed)


def assert_equal_preprocessing(per_query, inverted):
    """Equality of output contents *and* of the orderings downstream
    code iterates in (the utility queue, every RNN walk)."""
    assert per_query.nn_distance == inverted.nn_distance
    assert per_query.rnn == inverted.rnn
    assert per_query.initial_utility == inverted.initial_utility
    assert list(per_query.nn_distance) == list(inverted.nn_distance)
    assert list(per_query.rnn) == list(inverted.rnn)
    for candidate in per_query.rnn:
        assert per_query.rnn[candidate] == inverted.rnn[candidate]
    for a, b in zip(per_query.table, inverted.table):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(per_query.utility_order, inverted.utility_order):
        assert np.array_equal(a, b)


class TestStrategyEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=15, deadline=None)
    @given(instance=instances())
    def test_equal_preprocessing_output(self, kernel, instance):
        per_query = per_query_preprocess(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        inverted = preprocess_queries(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        assert_equal_preprocessing(per_query, inverted)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_matches_oracle(self, family, kernel):
        instance = _instance(family, seed=3)
        per_query = per_query_preprocess(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        inverted = preprocess_queries(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        assert_equal_preprocessing(per_query, inverted)
        assert per_query.searches == len(per_query.nn_distance)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10 ** 4))
    def test_ebrr_result_bit_identical(self, kernel, seed):
        """The full planner is bit-identical on the oracle's
        preprocessing: same route, same path, same metric floats."""
        config = EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=5.0)
        instance = _instance("sprawl", seed)
        engine = SearchEngine(instance.network, kernel=kernel)
        oracle = per_query_preprocess(instance, engine=engine)
        pq = plan_route(instance, config, preprocess=oracle, engine=engine)
        fresh = _instance("sprawl", seed)
        inv = plan_route(
            fresh, config, engine=SearchEngine(fresh.network, kernel=kernel)
        )
        assert pq.route.stops == inv.route.stops
        assert pq.route.path == inv.route.path
        assert pq.metrics == inv.metrics


class TestBenchmarkCities:
    """The benchmark's three cities at smoke scale, deterministic.
    Orlando's radii are heavy-tailed (at 0.2 the median is 1.85 km and
    the max 16.9 km), so its balls mix small and city-wide ones."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "city,scale", [("chicago", 0.06), ("nyc", 0.06), ("orlando", 0.08)]
    )
    def test_matches_oracle(self, city, scale, kernel):
        instance = load_city(city, scale=scale).instance(1.0)
        per_query = per_query_preprocess(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        inverted = preprocess_queries(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        assert_equal_preprocessing(per_query, inverted)


class TestAccounting:
    """The documented ``searches`` / ``settled_nodes`` contract (see
    the ``PreprocessResult`` docstring)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_inverted_definition(self, family, kernel):
        instance = _instance(family, seed=3)
        engine = SearchEngine(instance.network, kernel=kernel)
        result = preprocess_queries(instance, engine=engine)
        nodes = list(instance.query_counts)
        assert result.searches == 1 + len(nodes)
        assert len(result.nn_distance) == len(nodes)
        # Recompute the parts and check the documented sum exactly.
        field = engine.multi_source_labels(
            [i for i, f in enumerate(instance.is_existing) if f]
        )
        nn_forward = field.forward_distances(nodes)
        labels = field.label[nodes].tolist()
        _counts, _members, _dists, settled = engine.batch_query_rows(
            nodes, nn_forward, labels, instance.is_candidate
        )
        assert result.settled_nodes == field.reachable + sum(settled)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_accounting_is_backend_independent(self, kernel):
        instance = _instance("grid", seed=5)
        reference = preprocess_queries(
            instance, engine=SearchEngine(instance.network, kernel="python")
        )
        other = preprocess_queries(
            instance, engine=SearchEngine(instance.network, kernel=kernel)
        )
        assert (reference.searches, reference.settled_nodes) == (
            other.searches,
            other.settled_nodes,
        )
