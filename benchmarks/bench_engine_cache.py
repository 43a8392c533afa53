"""Supplement — SearchEngine cache effect on a K sweep.

The practitioner loop the paper motivates (tune K/C/alpha, re-plan,
inspect) re-runs the pipeline on an unchanged road network.  With the
shared ``SearchEngine``, the second and later runs reuse the Algorithm
2 preprocessing and serve from the LRU cache the SSSP rows of stops an
earlier run selected (selection's ``dist(·, B)`` folds and the
Christofides ordering share them) and the refinement paths, so fresh
searches are left for stops no earlier run picked and for paths no
earlier run took.  This bench measures that gap: a cold sweep (fresh
engine and fresh preprocessing per K) against a warm sweep (one shared
engine, preprocessing computed once), and records the cache hit rate.
"""

from __future__ import annotations

from repro.obs import now as obs_now

from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.preprocess import preprocess_queries
from repro.eval import format_table
from repro.network.engine import SearchEngine

from _common import BENCH_C, BENCH_KS, alpha_for, city, report


def test_engine_cache_cold_vs_warm(experiment):
    dataset = city("chicago")
    alpha = alpha_for(dataset)
    instance = dataset.instance(alpha)

    def run():
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=BENCH_C, alpha=alpha)
            for k in BENCH_KS
        ]

        # Cold: every run pays for its own preprocessing and searches.
        cold_start = obs_now()
        cold_routes = []
        for config in configs:
            result = plan_route(
                instance, config, engine=SearchEngine(instance.network)
            )
            cold_routes.append(result.route.stops)
        cold_s = obs_now() - cold_start

        # Warm: one shared engine, preprocessing computed once and
        # reused across the sweep (plan_route's documented K-sweep use).
        warm_engine = SearchEngine(instance.network)
        warm_start = obs_now()
        preprocess = preprocess_queries(instance, engine=warm_engine)
        warm_routes = []
        for config in configs:
            result = plan_route(
                instance, config, preprocess=preprocess, engine=warm_engine
            )
            warm_routes.append(result.route.stops)
        warm_s = obs_now() - warm_start

        info = warm_engine.cache_info()
        return {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "cache_hit_rate": info.hit_rate,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "routes_equal": cold_routes == warm_routes,
        }

    row = experiment(run)
    text = format_table(
        [
            {
                "variant": "cold (fresh engine per K)",
                "time_s": row["cold_s"],
                "speedup": 1.0,
            },
            {
                "variant": "warm (shared engine + reused preprocess)",
                "time_s": row["warm_s"],
                "speedup": row["speedup"],
            },
        ],
        title=(
            "K sweep planning time, cold vs warm engine (Chicago, "
            f"K in {BENCH_KS}) — warm cache hit rate "
            f"{row['cache_hit_rate']:.1%} "
            f"({row['cache_hits']} hits / {row['cache_misses']} misses)"
        ),
        float_digits=4,
    )
    report(text, "engine_cache.txt")

    # Same routes either way: the cache must never change results.
    assert row["routes_equal"]
    # The warm sweep must be at least 1.5x faster than the cold one.
    assert row["speedup"] >= 1.5, row
