"""Inverted-preprocessing benchmark — Algorithm 2 at full scale.

The vectorized kernels made the individual primitives fast, but the
paper's per-query Algorithm 2 loop still runs thousands of tiny,
unbatchable Dijkstras — the dominant preprocessing cost on full-scale
cities.  ``preprocess_queries`` collapses them into one multi-source
label field whose forward replay hands every query its truncation
radius up front, then batches the searches themselves as query-rooted
balls hundreds at a time.  This bench times it against the per-query
oracle (``per_query_preprocess``) on the vectorized kernel over a
ladder of synthetic cities (largest last), asserts the outputs are
equal while it is at it, and **gates a >= 3x inverted speedup on the
largest city**.

The regime is the one Theorem 5 is about: *sparse* existing stops
(few routes, wide spacing — every search runs long before hitting a
stop) under *dense uniform* demand (two queries per node on average —
many distinct query nodes, so the per-query loop pays ``|Q|`` full
truncated Dijkstras), over a designated candidate-stop subset (every
``CANDIDATE_STRIDE``-th intersection — ``S_new`` is a chosen shortlist
in the paper's formulation, not the whole node set).

Emits machine-readable ``BENCH_preprocess.json`` for CI next to the
human table.  The gate is decided from the measurement before the
record is written: ``"passed"`` or ``"failed"`` against
``required_speedup``.

``REPRO_BENCH_INVERTED_SCALE`` scales the city ladder (default 1.0).
"""

from __future__ import annotations

from repro.core.preprocess import per_query_preprocess, preprocess_queries
from repro.core.utility import BRRInstance
from repro.demand.generators import uniform_demand
from repro.eval import format_table
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city, radial_city, sprawl_city
from repro.obs import now as obs_now
from repro.transit.builder import build_transit_network

from _common import emit_bench, report
from repro.env import env_float

INVERTED_SCALE = env_float("REPRO_BENCH_INVERTED_SCALE", 1.0)

REQUIRED_SPEEDUP = 3.0
#: Demand density: mean queries per network node (uniform placement).
QUERIES_PER_NODE = 2
#: Candidate-stop density: every k-th non-stop node is in ``S_new``.
CANDIDATE_STRIDE = 6


def _ladder():
    """One instance per generator family, ordered smallest to largest."""
    s = INVERTED_SCALE
    networks = [
        ("grid", grid_city(int(55 * s), int(55 * s), seed=7)),
        (
            "radial",
            radial_city(
                num_boroughs=4,
                nodes_per_borough=int(1500 * s),
                borough_radius_km=2.5,
                spacing_km=6.0,
                seed=7,
            ),
        ),
        ("sprawl", sprawl_city(int(9000 * s), extent_km=25.0, seed=7)),
    ]
    instances = []
    for family, network in networks:
        transit = build_transit_network(
            network, num_routes=8, seed=8, stop_spacing_km=1.2
        )
        queries = uniform_demand(
            network, QUERIES_PER_NODE * network.num_nodes, seed=9
        )
        existing = set(transit.existing_stops)
        candidates = [
            v
            for v in range(network.num_nodes)
            if v % CANDIDATE_STRIDE == 0 and v not in existing
        ]
        instances.append(
            (
                family,
                BRRInstance(
                    transit, queries, candidates=candidates, alpha=5.0
                ),
            )
        )
    return instances


def _equal_output(a, b):
    return (
        a.nn_distance == b.nn_distance
        and a.rnn == b.rnn
        and a.initial_utility == b.initial_utility
        and list(a.rnn) == list(b.rnn)
    )


def test_preprocess_inverted_speedup(experiment):
    instances = _ladder()

    def run():
        tiers = []
        for family, instance in instances:
            timings = {}
            outputs = {}
            for name, run_preprocess in (
                ("per-query", per_query_preprocess),
                ("inverted", preprocess_queries),
            ):
                engine = SearchEngine(instance.network, kernel="vectorized")
                engine.csr  # warm the CSR + numpy views
                start = obs_now()
                outputs[name] = run_preprocess(instance, engine=engine)
                timings[name] = obs_now() - start
            tiers.append(
                {
                    "family": family,
                    "nodes": instance.network.num_nodes,
                    "queries": len(outputs["inverted"].nn_distance),
                    "candidates": len(list(instance.candidates)),
                    "per_query_s": timings["per-query"],
                    "inverted_s": timings["inverted"],
                    "speedup": timings["per-query"] / timings["inverted"],
                    "equal_output": _equal_output(
                        outputs["per-query"], outputs["inverted"]
                    ),
                }
            )
        return tiers

    tiers = experiment(run)
    largest = max(tiers, key=lambda t: t["nodes"])

    gate = "passed" if largest["speedup"] >= REQUIRED_SPEEDUP else "failed"

    payload = {
        "bench": "preprocess_inverted",
        "scale": INVERTED_SCALE,
        "vectorized_path": "scipy",
        "required_speedup": REQUIRED_SPEEDUP,
        "gate": gate,
        "largest": {
            "family": largest["family"],
            "nodes": largest["nodes"],
            "speedup": largest["speedup"],
        },
        "tiers": tiers,
    }
    emit_bench("preprocess", payload)

    text = format_table(
        [
            {
                "family": t["family"],
                "nodes": t["nodes"],
                "queries": t["queries"],
                "candidates": t["candidates"],
                "per_query_s": t["per_query_s"],
                "inverted_s": t["inverted_s"],
                "speedup": t["speedup"],
            }
            for t in tiers
        ],
        title=(
            f"Algorithm 2 preprocessing, per-query oracle vs inverted "
            f"(vectorized kernel, scale {INVERTED_SCALE})"
        ),
        float_digits=4,
    )
    report(text, "preprocess_inverted.txt")

    # The oracle-equivalence contract holds on every tier, always.
    for tier in tiers:
        assert tier["equal_output"], tier["family"]
    assert gate == "passed", payload
