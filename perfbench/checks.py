"""Output checks the benchmark applies to every operation.

A check returns a list of problems (empty when the output is right), so
one wrong route is counted as one failed operation and the run carries
on; the run then reports ``correct: false`` and exits non-zero.

* :func:`route_problems` checks a planned route against the road
  network it was planned on: the path is a road path, the stops are
  distinct plan stops that appear in order along it, there are at most
  ``K`` of them, and no two consecutive stops are more than ``C`` apart
  along the path.
* :class:`IdentityCheck` remembers the first route each op key (a
  ``(K, C)`` shape, or a demand partition with its shape) returned, and
  flags any later op on unchanged state that returns another.
* :func:`route_digest` and :func:`load_digests` compare the daemon's
  answers with routes planned directly in-process, stored by
  ``python3 perfbench/checks.py --write-digests``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Hashable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "serve_digests.json")

#: Slack on the adjacent-stop cost bound, as in Definition 8's check.
COST_SLACK = 1e-9


def route_problems(
    network,
    instance,
    stops: Sequence[int],
    path: Sequence[int],
    max_stops: int,
    max_adjacent_cost: float,
) -> List[str]:
    """Everything wrong with a route planned for ``(K, C)``."""
    problems: List[str] = []
    n = network.num_nodes
    if not stops:
        return ["route has no stops"]
    if len(stops) > max_stops:
        problems.append(f"{len(stops)} stops exceed K={max_stops}")
    if len(set(stops)) != len(stops):
        problems.append("a stop is visited twice")
    if any(not (0 <= node < n) for node in path):
        return problems + ["path leaves the network"]
    for stop in stops:
        if not (instance.is_candidate[stop] or instance.is_existing[stop]):
            problems.append(f"stop {stop} is neither a candidate nor an existing stop")
    for a, b in zip(path, path[1:]):
        if not network.has_edge(a, b):
            return problems + [f"path step {a}->{b} is not a road edge"]
    positions: List[int] = []
    cursor = 0
    for stop in stops:
        while cursor < len(path) and path[cursor] != stop:
            cursor += 1
        if cursor == len(path):
            return problems + [f"stop {stop} is not on the path in visiting order"]
        positions.append(cursor)
    for (i, lo), hi in zip(enumerate(positions), positions[1:]):
        cost = network.path_cost(path[lo : hi + 1])
        if cost > max_adjacent_cost + COST_SLACK:
            problems.append(
                f"stops {stops[i]}->{stops[i + 1]} are {cost:.4f} apart, over C={max_adjacent_cost}"
            )
    return problems


def route_digest(stops: Sequence[int], path: Sequence[int]) -> str:
    """A short, stable fingerprint of a route's stops and path."""
    blob = json.dumps([list(stops), list(path)], separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


class IdentityCheck:
    """First-answer memory: the same op key on unchanged state must
    return the same route every time."""

    def __init__(self) -> None:
        self._first: Dict[Hashable, str] = {}

    def problems(self, key: Hashable, stops: Sequence[int], path: Sequence[int]) -> List[str]:
        digest = route_digest(stops, path)
        first = self._first.setdefault(key, digest)
        if first != digest:
            return [f"op {key!r} returned route {digest}, first returned {first}"]
        return []


def digest_key(city: str, scale: float, max_stops: int, max_adjacent_cost: float) -> str:
    return f"{city}@{scale:g}:K={max_stops}:C={max_adjacent_cost:g}"


def load_digests() -> Dict[str, str]:
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def write_digests(shapes_by_scale: Dict[float, Sequence[tuple]], city: str) -> Dict[str, str]:
    """Plan every ``(K, C)`` shape directly in-process, exactly as the
    daemon's tenant does, and store the route digests."""
    from repro.core.config import EBRRConfig
    from repro.core.ebrr import plan_route
    from repro.core.preprocess import preprocess_queries
    from repro.datasets import load_city
    from repro.eval.experiments import calibrated_alpha

    digests: Dict[str, str] = {}
    for scale, shapes in sorted(shapes_by_scale.items()):
        dataset = load_city(city, scale=scale)
        alpha = calibrated_alpha(dataset)
        instance = dataset.instance(alpha)
        pre = preprocess_queries(instance)
        for k, c in shapes:
            config = EBRRConfig(max_stops=k, max_adjacent_cost=c, alpha=alpha)
            result = plan_route(instance, config, preprocess=pre)
            digests[digest_key(city, scale, k, c)] = route_digest(
                result.route.stops, result.route.path
            )
    with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return digests


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args != ["--write-digests"]:
        print("usage: python3 perfbench/checks.py --write-digests", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from workloads import DIGEST_SCALES, SERVE_CITY, SERVE_SHAPES

    digests = write_digests({scale: SERVE_SHAPES for scale in DIGEST_SCALES}, SERVE_CITY)
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
