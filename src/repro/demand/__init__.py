"""Demand substrate: transit queries, the multiset ``Q``, demand
generators, spatial partitioners, and ridership simulation."""

from .generators import commute_demand, hotspot_demand, uniform_demand
from .partition import by_regions, vertical_bands
from .query import QuerySet, TransitQuery
from .ridership import ridership_demand, uncovered_query_nodes

__all__ = [
    "TransitQuery",
    "QuerySet",
    "uniform_demand",
    "hotspot_demand",
    "commute_demand",
    "vertical_bands",
    "by_regions",
    "ridership_demand",
    "uncovered_query_nodes",
]
