"""Kernel-backend benchmark — dense searches on full-scale cities.

The pluggable search-kernel layer exists for exactly one reason: the
pure-Python heapq loops stop scaling once a city has tens of thousands
of road nodes, while the vectorized CSR backend (compiled scipy
Dijkstra over the shared numpy views) keeps the dense primitives —
full-row SSSP, multi-source fields and the query-rooted balls of
Algorithm 2 — cheap.  This bench times the same dense workload
under both backends on a ladder of synthetic cities (one per generator
family, largest last), asserts the outputs are bit-identical while it
is at it, and **gates a >= 3x vectorized speedup on the largest city**.

The ball pass mirrors Algorithm 2's shape: the multi-source seeds act
as the existing stops, every second node is a query, and every sixth
non-seed node is a candidate.  Its time is part of the workload and is
also reported on its own (``balls_*``), since the balls are the
primitive whose cost grows with both |Q| and the city.

Emits machine-readable ``BENCH_fullscale.json`` for CI next to the
human table.  The gate is decided from the measurement before the
record is written: ``"passed"`` or ``"failed"`` against
``required_speedup``.

``REPRO_BENCH_FULLSCALE_SCALE`` scales the city ladder (default 1.0).
"""

from __future__ import annotations

from repro.obs import now as obs_now

from repro.eval import format_table
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city, radial_city, sprawl_city

from _common import emit_bench, report
from repro.env import env_float

FULLSCALE_SCALE = env_float("REPRO_BENCH_FULLSCALE_SCALE", 1.0)

REQUIRED_SPEEDUP = 3.0
NUM_SSSP = 6
NUM_MULTI_SEEDS = 48


def _ladder():
    """One city per generator family, ordered smallest to largest."""
    s = FULLSCALE_SCALE
    return [
        ("grid", grid_city(int(70 * s), int(70 * s), seed=7)),
        (
            "radial",
            radial_city(
                num_boroughs=4,
                nodes_per_borough=int(2000 * s),
                borough_radius_km=2.5,
                spacing_km=6.0,
                seed=7,
            ),
        ),
        ("sprawl", sprawl_city(int(12000 * s), extent_km=25.0, seed=7)),
    ]


def _seeds(n):
    return list(range(0, n, max(1, n // NUM_MULTI_SEEDS)))[:NUM_MULTI_SEEDS]


def _ball_inputs(network):
    """Arguments of the ball pass: every second node queries, with its
    radius and label from the seeds' label field, and every sixth
    non-seed node is a candidate.  Built once per city, untimed."""
    n = network.num_nodes
    seeds = _seeds(n)
    engine = SearchEngine(network)
    field = engine.multi_source_labels(seeds, cached=False)
    queries = list(range(0, n, 2))
    nn_forward = field.forward_distances(queries)
    labels = field.label[queries].tolist()
    seed_set = set(seeds)
    is_candidate = [False] * n
    for u in [u for u in range(n) if u not in seed_set][::6]:
        is_candidate[u] = True
    return queries, nn_forward, labels, is_candidate


def _dense_workload(engine, network, balls):
    """The dense searches a full-city planning pass leans on: single
    source rows, one multi-source field, and one batched ball pass.  Caches are bypassed so the kernels are what
    is being timed.  Returns the outputs and the ball pass's seconds."""
    n = network.num_nodes
    rows = []
    for s in range(0, n, max(1, n // NUM_SSSP))[:NUM_SSSP]:
        rows.append(engine.sssp(s, cached=False))
    rows.append(engine.multi_source(_seeds(n), cached=False))
    start = obs_now()
    columns = engine.batch_query_rows(*balls)
    elapsed = obs_now() - start
    rows.extend(column.tolist() for column in columns)
    return rows, elapsed


def test_fullscale_kernel_speedup(experiment):
    cities = _ladder()

    def run():
        tiers = []
        for family, network in cities:
            balls = _ball_inputs(network)
            timings = {}
            ball_timings = {}
            outputs = {}
            for kernel in ("python", "vectorized"):
                engine = SearchEngine(network, kernel=kernel)
                engine.sssp(0, cached=False)  # warm the CSR + views
                start = obs_now()
                outputs[kernel], ball_timings[kernel] = _dense_workload(
                    engine, network, balls
                )
                timings[kernel] = obs_now() - start
            tiers.append(
                {
                    "family": family,
                    "nodes": network.num_nodes,
                    "edges": network.num_edges,
                    "python_s": timings["python"],
                    "vectorized_s": timings["vectorized"],
                    "speedup": timings["python"] / timings["vectorized"],
                    "balls_python_s": ball_timings["python"],
                    "balls_vectorized_s": ball_timings["vectorized"],
                    "balls_speedup": ball_timings["python"]
                    / ball_timings["vectorized"],
                    "bit_identical": outputs["python"]
                    == outputs["vectorized"],
                }
            )
        return tiers

    tiers = experiment(run)
    largest = max(tiers, key=lambda t: t["nodes"])

    gate = "passed" if largest["speedup"] >= REQUIRED_SPEEDUP else "failed"

    payload = {
        "bench": "fullscale_kernels",
        "scale": FULLSCALE_SCALE,
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
    emit_bench("fullscale", payload)

    text = format_table(
        [
            {
                "family": t["family"],
                "nodes": t["nodes"],
                "edges": t["edges"],
                "python_s": t["python_s"],
                "vectorized_s": t["vectorized_s"],
                "speedup": t["speedup"],
                "balls_speedup": t["balls_speedup"],
            }
            for t in tiers
        ],
        title=(
            f"Dense search workload, python vs vectorized kernel "
            f"(scale {FULLSCALE_SCALE})"
        ),
        float_digits=4,
    )
    report(text, "fullscale_kernels.txt")

    # The cross-backend contract holds on every tier, always.
    for tier in tiers:
        assert tier["bit_identical"], tier["family"]
    assert gate == "passed", payload
