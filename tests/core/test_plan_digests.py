"""Pinned plan digests: ``plan_route``'s exact answer and work on Chicago.

Each case hashes ``(stops, path, gains, prices, evaluations,
queue_inserts)``, so a change to the selection bookkeeping that moves one
pick, one float of a gain or one queue insert fails here, and a change
that only makes the bookkeeping cheaper passes.  The ablation switch sets
run on Chicago 0.06, the default set on Chicago 0.2 (the city the
sweep benchmark plans on).  Chicago only: its grid generator builds the
same network on every CPU, which NYC's and Orlando's do not yet.

The multi-route cases pin each round of a 3-round ``plan_routes``
program.  Rounds 2 and 3 add the previous route's stops to the existing
set, so their Algorithm 2 label field is a miss over a grown stop set.
"""

import hashlib

import pytest

from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.multi_route import plan_routes
from repro.core.preprocess import preprocess_queries
from repro.datasets import load_city
from repro.eval.experiments import ABLATION_VARIANTS, calibrated_alpha

SMALL = [(8, 1.5), (15, 2.0), (25, 3.0)]
SWEEP = [(10, 1.5), (25, 2.25), (40, 3.0)]

DIGESTS = {
    (0.06, "EBRR", 8, 1.5): "3288676857e4d6b52b5cc7c07e0fd8c7a13a6971af3da38500ce21ded7c2747f",
    (0.06, "EBRR", 15, 2.0): "2fb267e775791738695170ffa135ea822b1865695f59261f99a6007e53060b42",
    (0.06, "EBRR", 25, 3.0): "0535084c369c685ea3d9736033ed89b02cc1d8db6b91305d960388d5809c0a3a",
    (0.06, "w/o filtered queue", 8, 1.5): "005ad5539fc3e7033884410b144994ba6ec188bfd2132f47886feb79005cba33",
    (0.06, "w/o filtered queue", 15, 2.0): "0aed4825e2473796f53cfb6521919c37384e49f8d4311dd74cb4e30a63f8bd7d",
    (0.06, "w/o filtered queue", 25, 3.0): "d3073ab47a228b5dcf1bdfccdc40a15bb387c5eeb0be2d4afb5908e71c671a40",
    (0.06, "real price", 8, 1.5): "693f078bd458da56483bf5dc327e50a0700a89a862f99af924fe0de14892d1ee",
    (0.06, "real price", 15, 2.0): "d65c759e0b549aca3eaa584d838cc4814ffd2b6da85b74f24f7426473342146d",
    (0.06, "real price", 25, 3.0): "37f398fbaf8e6b4174fd48db0fd6281d8387f8229a8bcf70b098b2d7631933a5",
    (0.06, "vanilla", 8, 1.5): "a0a042bd169e59b13453e384abc4da3393a916c5134a929532af3e8f35455b34",
    (0.06, "vanilla", 15, 2.0): "89dcb6c64700f804c05f5244eb3d17d822390f55f0f7e32231bf1049fdfd4702",
    (0.06, "vanilla", 25, 3.0): "227d67ec2417eae1b64327d7ca25db4e8ff742147ebb6d6bfa52df5ea03b8592",
    (0.2, "EBRR", 10, 1.5): "193ae1b8ebbe9eab88ad7b54e2ef915e3800bc19ea8b8144f6aa0b7f3e707618",
    (0.2, "EBRR", 25, 2.25): "78a1ab81c40ac8a87dd6324e7cdd7596dc0839951416aee53c45febe9dc43cb4",
    (0.2, "EBRR", 40, 3.0): "ca53ce31a4df983b9c48b897ab636364b5dd83611c59272db1df671af3eac4dc",
}

MULTI_ROUTE_DIGESTS = {
    (0.06, 8, 1.5): (
        "3288676857e4d6b52b5cc7c07e0fd8c7a13a6971af3da38500ce21ded7c2747f",
        "ae77f4bb29e55263d66c19074b5e6a9186c6baee32e2a341c67fb46508e281ff",
        "053730391b6eeff5f5c2ff966f0656a535094dcf76f88638b152369d60bd6c4a",
    ),
    (0.2, 15, 2.0): (
        "78d60dbb53f4d23402aca800e9debdab3c214cad5b9414261b8406f368b6677f",
        "27b40b7a7385085a98643253bf1d82c22bcc5cc2530e294bb6305067580cb89d",
        "8f44fa60a942f154595647a3fe2f81c147402ef737d4d8cdccae0454402edddd",
    ),
}


@pytest.fixture(scope="module")
def planned():
    cache = {}

    def setup(scale):
        if scale not in cache:
            dataset = load_city("chicago", scale=scale)
            alpha = calibrated_alpha(dataset)
            instance = dataset.instance(alpha)
            cache[scale] = (instance, alpha, preprocess_queries(instance))
        return cache[scale]

    return setup


def _digest(result):
    trace = result.trace
    payload = (
        list(result.route.stops),
        list(result.route.path),
        trace.gains,
        trace.prices,
        trace.evaluations,
        trace.queue_inserts,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize(
    "scale, variant, k, c, digest",
    [
        pytest.param(*key, digest, id="-".join(map(str, key)))
        for key, digest in DIGESTS.items()
    ],
)
def test_plan_digest(planned, scale, variant, k, c, digest):
    instance, alpha, pre = planned(scale)
    config = EBRRConfig(
        max_stops=k, max_adjacent_cost=c, alpha=alpha, **ABLATION_VARIANTS[variant]
    )
    assert _digest(plan_route(instance, config, preprocess=pre)) == digest


@pytest.mark.parametrize(
    "scale, k, c, digests",
    [
        pytest.param(*key, digests, id="-".join(map(str, key)))
        for key, digests in MULTI_ROUTE_DIGESTS.items()
    ],
)
def test_multi_route_digests(planned, scale, k, c, digests):
    instance, alpha, _ = planned(scale)
    config = EBRRConfig(max_stops=k, max_adjacent_cost=c, alpha=alpha)
    program = plan_routes(instance.transit, instance.queries, config, num_routes=3)
    assert tuple(_digest(result) for result in program.per_route) == digests


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_trace_holds_python_numbers(planned, variant):
    """The digests hash the trace's ``repr``: a numpy scalar in it (its
    ``repr`` is ``np.float64(...)`` under numpy 2) would change them."""
    instance, alpha, pre = planned(0.06)
    config = EBRRConfig(
        max_stops=15, max_adjacent_cost=2.0, alpha=alpha, **ABLATION_VARIANTS[variant]
    )
    trace = plan_route(instance, config, preprocess=pre).trace
    assert trace.gains and all(type(gain) is float for gain in trace.gains)
    assert trace.prices and all(type(price) is int for price in trace.prices)
    assert type(trace.evaluations) is int and type(trace.queue_inserts) is int
