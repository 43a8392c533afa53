"""Property tests for the exact OPT machinery: the fast subset
evaluator must equal the direct objective on arbitrary subsets, greedy
never beats OPT, and EBRR keeps Theorem 4's guaranteed fraction of
it."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import approximation_bound, network_diameter
from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.exact import _FastEvaluator, optimal_stop_set
from repro.core.utility import BRRInstance
from repro.demand.query import QuerySet
from repro.network.generators import grid_city
from repro.transit.builder import build_transit_network


def _small_instance(seed, num_candidates=6):
    network = grid_city(5, 5, seed=seed, removal_fraction=0.0)
    transit = build_transit_network(
        network, num_routes=2, seed=seed + 1, stop_spacing_km=1.0
    )
    existing = set(transit.existing_stops)
    candidates = [v for v in network.nodes() if v not in existing][
        :num_candidates
    ]
    import numpy as np

    rng = np.random.default_rng(seed + 2)
    queries = QuerySet(
        network, [int(v) for v in rng.integers(0, network.num_nodes, size=40)]
    )
    return BRRInstance(transit, queries, candidates=candidates, alpha=1.5)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fast_evaluator_equals_direct_utility(seed):
    instance = _small_instance(seed)
    evaluator = _FastEvaluator(instance)
    universe = instance.candidates + instance.existing_stops
    for size in (1, 2, 3):
        for subset in itertools.islice(
            itertools.combinations(universe, size), 40
        ):
            assert evaluator.utility(subset) == pytest.approx(
                instance.utility(list(subset)), rel=1e-9, abs=1e-9
            ), subset


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("k", [2, 4])
def test_greedy_never_beats_opt(seed, k):
    instance = _small_instance(seed)
    config = EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=1.5)
    result = plan_route(instance, config)
    _, opt = optimal_stop_set(instance, k)
    assert result.metrics.utility <= opt + 1e-6


@pytest.mark.parametrize("seed", [8, 9])
def test_opt_superset_dominance(seed):
    """OPT at K is at least OPT at K-1 and at least the best single."""
    instance = _small_instance(seed)
    values = [optimal_stop_set(instance, k)[1] for k in (1, 2, 3, 4)]
    assert values == sorted(values)
    best_single = max(
        instance.utility([v])
        for v in instance.candidates + instance.existing_stops
    )
    assert values[0] == pytest.approx(best_single)


@pytest.mark.parametrize("seed", [10, 11])
def test_connectable_opt_dominated_by_unconstrained(seed):
    instance = _small_instance(seed)
    _, unconstrained = optimal_stop_set(instance, 3)
    _, constrained = optimal_stop_set(
        instance, 3, max_adjacent_cost=1.0, require_c_connectable=True
    )
    assert constrained <= unconstrained + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10 ** 4),
    k=st.sampled_from([2, 3, 4]),
    c=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
)
def test_ebrr_keeps_theorem_4_fraction_of_opt(seed, k, c):
    """The guarantee from below: EBRR's utility is at least the
    instance's Theorem 4 ratio times the C-connectable OPT."""
    instance = _small_instance(seed)
    config = EBRRConfig(max_stops=k, max_adjacent_cost=c, alpha=1.5)
    result = plan_route(instance, config)
    _, opt = optimal_stop_set(
        instance, k, max_adjacent_cost=c, require_c_connectable=True
    )
    bound = approximation_bound(
        instance.network, c, diameter=network_diameter(instance.network)
    )
    assert result.metrics.utility >= bound.ratio * opt - 1e-9
