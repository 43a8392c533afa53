"""Transit substrate: stops, routes, the transit network, a synthetic
feed builder, GTFS-like persistence, and the multimodal journey planner.
"""

from .builder import build_transit_network, place_stops_along_path
from .gtfs import load_transit, save_transit
from .gtfs_real import GtfsImportReport, load_gtfs_feed
from .journey import Itinerary, JourneyLeg, JourneyPlanner, travel_cost_decrease
from .network import TransitNetwork
from .route import BusRoute
from .stop import BusStop

__all__ = [
    "BusStop",
    "BusRoute",
    "TransitNetwork",
    "build_transit_network",
    "place_stops_along_path",
    "save_transit",
    "load_transit",
    "load_gtfs_feed",
    "GtfsImportReport",
    "JourneyPlanner",
    "Itinerary",
    "JourneyLeg",
    "travel_cost_decrease",
]
