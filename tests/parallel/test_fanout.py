"""The sweep fan-out contract: parallel execution is *bit-identical*
to serial, not merely approximately equal.

Every assertion here uses exact ``==`` on floats on purpose — the
deterministic-reduce design (order-preserving ``Pool.map``, exact float
pickling) promises the same bits, and these tests are the enforcement.

The sweep runs under both start methods.  Under ``spawn`` a lambda, a
nested def, or an unpicklable bound method shipped to the pool really
fails, and a worker that leaks module-global state breaks equality
with the serial run.  A :class:`SearchEngine` does pickle, so what the
sweep ships is also re-pickled with a pickler that refuses engines:
workers must rebuild theirs from the network.
"""

import io
import multiprocessing
import pickle

import pytest

from repro.core.config import EBRRConfig
from repro.core.utility import BRRInstance
from repro.demand.generators import hotspot_demand
from repro.exceptions import ConfigurationError
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city
from repro.parallel import sweep, sweep_plans
from repro.transit.builder import build_transit_network


def _instance(seed):
    network = grid_city(8, 8, seed=seed)
    transit = build_transit_network(
        network, num_routes=4, seed=seed + 1, stop_spacing_km=0.8
    )
    queries = hotspot_demand(
        network, 300, num_hotspots=4, transit=transit, seed=seed + 2
    )
    return BRRInstance(transit, queries, alpha=5.0)


def _stats_tuple(stats):
    return (stats.searches, stats.settled, stats.pushes, stats.truncated)


class _EngineFreePickler(pickle.Pickler):
    """Pickles like the pool does, but refuses a live engine."""

    def reducer_override(self, obj):
        if isinstance(obj, SearchEngine):
            raise pickle.PicklingError("a live SearchEngine was shipped")
        return NotImplemented


class _RecordingContext:
    """A multiprocessing context for ``sweep.pool_context`` that records
    the pool's ``initargs`` and each ``map`` task list."""

    def __init__(self, context):
        self._context = context
        self.shipped = []

    def Pool(self, **kwargs):
        self.shipped.append(kwargs["initargs"])
        pool = self._context.Pool(**kwargs)
        real_map = pool.map

        def recording_map(func, iterable):
            tasks = list(iterable)
            self.shipped.append(tasks)
            return real_map(func, tasks)

        pool.map = recording_map
        return pool


def _assert_sweep_matches_serial(workers, context, monkeypatch):
    recording = _RecordingContext(context)
    monkeypatch.setattr(sweep, "pool_context", lambda: recording)
    instance = _instance(seed=7)
    configs = [
        EBRRConfig(max_stops=k, max_adjacent_cost=1.5, alpha=5.0)
        for k in (4, 6, 8)
    ]
    serial = sweep_plans(instance, configs, workers=1)
    par = sweep_plans(instance, configs, workers=workers)
    assert len(recording.shipped) == 2  # initargs, then one task list
    for shipped in recording.shipped:
        _EngineFreePickler(io.BytesIO()).dump(shipped)
    assert len(serial) == len(par) == len(configs)
    for a, b in zip(serial, par):
        assert a.route.route_id == b.route.route_id
        assert a.route.stops == b.route.stops
        assert a.route.path == b.route.path
        assert a.metrics.utility == b.metrics.utility
        assert a.metrics.walk_cost == b.metrics.walk_cost
        assert a.metrics.connectivity == b.metrics.connectivity


class TestSweep:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sweep_matches_serial(self, workers, monkeypatch):
        """Under the sweep's own start method (``fork`` on Linux)."""
        _assert_sweep_matches_serial(workers, sweep.pool_context(), monkeypatch)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sweep_matches_serial_under_spawn(self, workers, monkeypatch):
        _assert_sweep_matches_serial(
            workers, multiprocessing.get_context("spawn"), monkeypatch
        )

    def test_sweep_folds_preprocess_stats_back(self):
        instance = _instance(seed=7)
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=1.5, alpha=5.0)
            for k in (4, 6)
        ]
        serial_engine = SearchEngine(instance.network)
        sweep_plans(instance, configs, workers=1, engine=serial_engine)
        par_engine = SearchEngine(instance.network)
        sweep_plans(instance, configs, workers=2, engine=par_engine)
        assert _stats_tuple(serial_engine.counters("preprocess")) == _stats_tuple(
            par_engine.counters("preprocess")
        )

    def test_route_ids_length_mismatch(self):
        instance = _instance(seed=7)
        configs = [EBRRConfig(max_stops=4, max_adjacent_cost=1.5, alpha=5.0)]
        with pytest.raises(ConfigurationError):
            sweep_plans(instance, configs, route_ids=["a", "b"])

    def test_invalid_workers_rejected(self):
        instance = _instance(seed=7)
        configs = [EBRRConfig(max_stops=4, max_adjacent_cost=1.5, alpha=5.0)]
        with pytest.raises(ConfigurationError, match="workers"):
            sweep_plans(instance, configs, workers=0)
