"""EBRR configuration.

Collects the problem parameters of Definition 10 (``K``, ``C``, ``α``)
and the algorithm switches used by the paper's ablation study
(Section VI-B2): the filtered queue's threshold pruning, the lazy
selection, the lower-bound price, and the final path refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..exceptions import ConfigurationError

#: Selection stops once the accumulated price reaches this fraction of K
#: (the 2K/3 bound of Algorithm 1, justified by Christofides' 3/2 ratio).
DEFAULT_PRICE_BUDGET_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class EBRRConfig:
    """Parameters for one EBRR run.

    Attributes:
        max_stops: ``K`` — maximum number of stops of the new route
            (Definition 8).  Must be at least 2.
        max_adjacent_cost: ``C`` — maximum path cost between adjacent
            stops, in the network's cost unit (km by convention).
        alpha: ``α`` — the walking-cost / connectivity trade-off of the
            utility function (Definition 9).  Must be positive.
        seed_stop: explicit choice for the arbitrary initial stop
            ``v(0)``; ``None`` picks the stop with the highest initial
            utility (a deterministic, sensible "arbitrary" choice).
        use_threshold_pruning: Claim 1's pruning of low-initial-utility
            stops (part of the filtered queue).  Disable to reproduce
            the "w/o the filtered queue" ablation variant.
        use_lazy_selection: Claim 2's lazy evaluation through the
            ``RQueue`` of upper bounds.  Disable (together with
            ``use_threshold_pruning``) for the "vanilla" variant that
            evaluates every stop every iteration.
        use_lower_bound_price: rank the ``RQueue`` by the cheap
            Euclidean lower-bound price of Algorithm 4; disable to use
            the true network price in the upper bounds (the "real cost"
            ablation variant).
        refine_path: run Algorithm 5 after Christofides.  Disable for
            the "w/o the path refinement" variant.
        price_budget_fraction: the stopping constant of Algorithm 1
            (2/3 by default; exposed for sensitivity studies).

    Engine settings (search backend, cache capacity) are not part of the
    config: they belong to the :class:`~repro.network.engine.SearchEngine`
    a run is given, and never change its result.
    """

    max_stops: int
    max_adjacent_cost: float
    alpha: float = 1.0
    seed_stop: Optional[int] = None
    use_threshold_pruning: bool = True
    use_lazy_selection: bool = True
    use_lower_bound_price: bool = True
    refine_path: bool = True
    price_budget_fraction: float = DEFAULT_PRICE_BUDGET_FRACTION

    def __post_init__(self) -> None:
        if self.max_stops < 2:
            raise ConfigurationError(
                f"K (max_stops) must be at least 2, got {self.max_stops}"
            )
        # Written as 0 < x < inf so that NaN fails too; edge costs obey
        # the same rule (graph.py).
        if not 0.0 < self.max_adjacent_cost < math.inf:
            raise ConfigurationError(
                "C (max_adjacent_cost) must be positive and finite, got "
                f"{self.max_adjacent_cost}"
            )
        if not 0.0 < self.alpha < math.inf:
            raise ConfigurationError(
                f"alpha must be positive and finite, got {self.alpha}"
            )
        if not (0.0 < self.price_budget_fraction <= 1.0):
            raise ConfigurationError(
                "price_budget_fraction must be in (0, 1], got "
                f"{self.price_budget_fraction}"
            )

    @property
    def price_budget(self) -> float:
        """The selection budget ``2K/3`` (with the default fraction)."""
        return self.price_budget_fraction * self.max_stops
