#!/usr/bin/env python3
"""Full service planning: route -> polish -> rider impact -> map.

The paper plans the route; a transit agency then has to predict the
rider impact and present the plan.  This example chains the whole
pipeline on one city:

1. plan the route with EBRR (the paper's contribution);
2. polish it with the post-processing local search (the paper's
   future-work second stage);
3. measure door-to-door travel-time impact with the journey planner
   (its default boarding penalty);
4. render the case-study map to ``service_plan.svg``.

Run:
    python examples/service_planning.py
"""

from repro import EBRRConfig, plan_route
from repro.core.postprocess import postprocess_route
from repro.datasets import load_city
from repro.eval.experiments import calibrated_alpha
from repro.eval.visualize import render_case_study
from repro.transit import JourneyPlanner


def main() -> None:
    city = load_city("nyc", scale=0.08)
    print(f"{city.name}: {city.statistics()}")
    alpha = calibrated_alpha(city)
    instance = city.instance(alpha)
    config = EBRRConfig(max_stops=15, max_adjacent_cost=2.0, alpha=alpha)

    # 1. first-stage route
    first = plan_route(instance, config)
    print(f"\n1. EBRR route: {first.summary()}")

    # 2. second-stage polish
    polished = postprocess_route(instance, first.route, config, max_rounds=2)
    print(
        f"2. post-processing: +{polished.improvement:,.1f} utility "
        f"({polished.moves_applied} moves, {polished.elapsed_s:.2f}s)"
    )
    route = polished.route

    # 3. rider impact
    import numpy as np

    rng = np.random.default_rng(7)
    nodes = city.queries.nodes
    trips = []
    while len(trips) < 80:
        a = nodes[int(rng.integers(0, len(nodes)))]
        b = nodes[int(rng.integers(0, len(nodes)))]
        if a != b:
            trips.append((a, b))
    before = JourneyPlanner(city.transit)
    after = JourneyPlanner(city.transit.with_route(route))
    t_before = before.average_travel_time(trips)
    t_after = after.average_travel_time(trips)
    print(
        f"3. rider impact: avg door-to-door {t_before:.1f} -> "
        f"{t_after:.1f} min ({t_before - t_after:+.1f})"
    )

    # 4. the map
    render_case_study(
        city.network,
        city.queries,
        city.transit.existing_stops,
        route,
        "service_plan.svg",
        title=f"{city.name}: new route",
    )
    print("4. map written to service_plan.svg")


if __name__ == "__main__":
    main()
