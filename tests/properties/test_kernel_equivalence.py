"""The cross-backend relaxation-order contract, asserted.

Every kernel backend must be **bit-identical** to the reference python
heapq backend (see ``repro/network/kernels/base.py``): same IEEE-754
distances, same predecessor tie-breaks, same settle order in ordered
outputs, and identical ``searches`` / ``settled`` counters (``pushes``
is explicitly backend-defined and excluded).

The suite drives both backends through every ``SearchKernel``
primitive — via the public ``SearchEngine`` methods, caches disabled
where possible — on hypothesis-chosen instances of the three synthetic
city families (grid / radial / sprawl).
Equality assertions are exact (``==``), never approximate: that *is*
the contract.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.network.engine import SearchEngine, available_kernels
from repro.network.generators import grid_city, radial_city, sprawl_city


@st.composite
def cities(draw):
    """Small instances of the three synthetic city families."""
    family = draw(st.sampled_from(["grid", "radial", "sprawl"]))
    seed = draw(st.integers(0, 10 ** 6))
    if family == "grid":
        return grid_city(
            draw(st.integers(3, 7)), draw(st.integers(3, 7)), seed=seed
        )
    if family == "radial":
        return radial_city(
            num_boroughs=draw(st.integers(2, 3)),
            nodes_per_borough=draw(st.integers(12, 40)),
            borough_radius_km=1.5,
            spacing_km=4.0,
            seed=seed,
        )
    return sprawl_city(draw(st.integers(20, 80)), extent_km=6.0, seed=seed)


@st.composite
def wide_cities(draw):
    """Instances several kilometres across: the vectorized backend
    groups query balls by spatial tile, so a batch drawn here spans
    several groups and its balls cross group edges."""
    family = draw(st.sampled_from(["grid", "radial", "sprawl"]))
    seed = draw(st.integers(0, 10 ** 6))
    if family == "grid":
        return grid_city(
            draw(st.integers(4, 9)),
            draw(st.integers(4, 9)),
            block_km=draw(st.floats(0.4, 1.5)),
            seed=seed,
        )
    if family == "radial":
        return radial_city(
            num_boroughs=draw(st.integers(2, 4)),
            nodes_per_borough=draw(st.integers(12, 40)),
            borough_radius_km=2.5,
            spacing_km=7.0,
            seed=seed,
        )
    return sprawl_city(
        draw(st.integers(30, 100)),
        extent_km=draw(st.floats(6.0, 16.0)),
        seed=seed,
    )


def engines(network):
    """A fresh engine pair (reference, vectorized) over one network."""
    return (
        SearchEngine(network, kernel="python"),
        SearchEngine(network, kernel="vectorized"),
    )


def invariant_counters(engine, phase="adhoc"):
    # counters() creates an empty block when no search ran (e.g. the
    # source == target early return of distance()).
    stats = engine.counters(phase)
    return {"searches": stats.searches, "settled": stats.settled}


def test_both_backends_registered():
    assert available_kernels() == ["python", "vectorized"]


@settings(max_examples=40, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6))
def test_sssp_bit_identical(network, seed):
    ep, ev = engines(network)
    source = seed % network.num_nodes
    rp = ep.sssp(source, cached=False)
    rv = ev.sssp(source, cached=False)
    assert rp == rv  # exact float equality, element-wise
    assert all(type(d) is float for d in rv)  # no np.float64 leakage
    assert invariant_counters(ep) == invariant_counters(ev)


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6))
def test_multi_source_bit_identical(network, seed):
    ep, ev = engines(network)
    n = network.num_nodes
    sources = [seed % n, (seed // 7) % n, (seed // 91) % n]
    rp = ep.multi_source(sources, cached=False)
    rv = ev.multi_source(sources, cached=False)
    assert rp == rv
    assert invariant_counters(ep) == invariant_counters(ev)


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6))
def test_path_bit_identical(network, seed):
    ep, ev = engines(network)
    n = network.num_nodes
    source, target = seed % n, (seed // 13) % n
    pp, cp = ep.path(source, target)
    pv, cv = ev.path(source, target)
    assert pp == pv  # same nodes — same predecessor tie-breaks
    assert cp == cv


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6))
def test_distance_bit_identical(network, seed):
    ep, ev = engines(network)
    n = network.num_nodes
    source, target = seed % n, (seed // 13) % n
    assert ep.distance(source, target) == ev.distance(source, target)
    assert invariant_counters(ep) == invariant_counters(ev)


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6), m=st.integers(3, 11))
def test_query_search_bit_identical(network, seed, m):
    ep, ev = engines(network)
    n = network.num_nodes
    query = seed % n
    is_existing = [u % m == m - 1 for u in range(n)]
    is_candidate = [u % 3 == 0 and not is_existing[u] for u in range(n)]
    try:
        rp = ep.query_search(query, is_existing, is_candidate)
    except GraphError:
        with pytest.raises(GraphError):
            ev.query_search(query, is_existing, is_candidate)
        return
    rv = ev.query_search(query, is_existing, is_candidate)
    assert rp == rv  # nn stop, nn distance, and the RNN list in order
    assert invariant_counters(ep) == invariant_counters(ev)


@settings(max_examples=40, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6), b=st.floats(0.05, 1))
def test_nodes_within_bit_identical(network, seed, b):
    ep, ev = engines(network)
    source = seed % network.num_nodes
    max_cost = 0.2 + b * 3.0
    rp = ep.nodes_within(source, max_cost, cached=False)
    rv = ev.nodes_within(source, max_cost, cached=False)
    assert rp == rv  # same (node, dist) pairs in the same settle order
    assert all(
        type(u) is int and type(d) is float for u, d in rv
    )  # native types out of the numpy backend
    assert invariant_counters(ep) == invariant_counters(ev)


@settings(max_examples=25, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6))
def test_incremental_nearest_bit_identical(network, seed):
    ep, ev = engines(network)
    n = network.num_nodes
    incp = ep.incremental_nearest(phase="inc")
    incv = ev.incremental_nearest(phase="inc")
    for k in range(4):
        source = (seed // (k + 1)) % n
        incp.add_source(source)
        incv.add_source(source)
        assert incp.distance.tolist() == incv.distance.tolist()
    assert incp.sources == incv.sources
    assert invariant_counters(ep, "inc") == invariant_counters(ev, "inc")


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6), m=st.integers(3, 11))
def test_multi_source_labels_bit_identical(network, seed, m):
    ep, ev = engines(network)
    n = network.num_nodes
    sources = [u for u in range(n) if u % m == m - 1] or [seed % n]
    fp = ep.multi_source_labels(sources, cached=False)
    fv = ev.multi_source_labels(sources, cached=False)
    # Exact float equality and the same canonical tie-breaks, in the
    # contract's dtypes: distance, label, and the canonical tree.
    for column, dtype in FIELD_COLUMNS:
        p_col, v_col = getattr(fp, column), getattr(fv, column)
        assert p_col.dtype == dtype and v_col.dtype == dtype
        assert np.array_equal(p_col, v_col), column
    assert fp.reachable == fv.reachable
    assert invariant_counters(ep) == invariant_counters(ev)


#: ``LabelField``'s array columns with their dtypes.
FIELD_COLUMNS = (
    ("distance", np.float64),
    ("label", np.int64),
    ("pred", np.int64),
    ("step", np.float64),
)


def _forward_replay(csr, distance, targets):
    """Per target, walk the canonical tight predecessor chain of the
    converged field ``distance`` to its source, re-adding arc costs in
    walk order — the python kernel's earlier per-target replay, kept as
    an oracle."""
    indptr, tgt, costs = csr.indptr, csr.targets, csr.costs
    out = []
    for t in targets:
        if distance[t] == math.inf:
            out.append(math.inf)
            continue
        acc = 0.0
        cur = t
        while distance[cur] > 0.0:
            dc = distance[cur]
            best = None
            best_cost = 0.0
            for i in range(indptr[cur], indptr[cur + 1]):
                u = tgt[i]
                du = distance[u]
                if du < dc and du + costs[i] <= dc:
                    if best is None or (du, u) < best:
                        best = (du, u)
                        best_cost = costs[i]
            acc = acc + best_cost
            cur = best[1]
        out.append(acc)
    return out


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6), m=st.integers(3, 11))
def test_forward_replay_bit_identical(network, seed, m):
    ep, ev = engines(network)
    n = network.num_nodes
    sources = [u for u in range(n) if u % m == m - 1] or [seed % n]
    targets = list(range(n))
    fp = ep.multi_source_labels(sources, cached=False)
    fv = ev.multi_source_labels(sources, cached=False)
    expected = _forward_replay(ep.csr, fp.distance.tolist(), targets)
    assert fp.forward_distances(targets) == expected
    assert fv.forward_distances(targets) == expected
    # Sources replay to exactly 0.0; everything reachable is finite.
    for s in sources:
        assert expected[s] == 0.0


@settings(max_examples=30, deadline=None)
@given(network=cities(), seed=st.integers(0, 10 ** 6))
@pytest.mark.parametrize("kernel", available_kernels())
def test_single_source_tree_is_path_tree(kernel, network, seed):
    """The canonical tree of a single-source field is the ``path``
    tree: walking ``pred`` from any target gives ``path(s, t)``
    reversed, on either backend."""
    engine = SearchEngine(network, kernel=kernel)
    n = network.num_nodes
    source = seed % n
    pred = engine.multi_source_labels([source], cached=False).pred
    for target in range(0, n, 1 + n // 10):
        walk = [target]
        while pred[walk[-1]] >= 0:
            walk.append(int(pred[walk[-1]]))
        path, _cost = engine.path(source, target)
        assert walk == list(reversed(path))


#: ``batch_query_rows``' column dtypes: member counts, member nodes,
#: member distances, ball sizes.
BALL_DTYPES = (np.int64, np.int64, np.float64, np.int64)


def ball_inputs(network, sources, nodes):
    """``(nn_forward, labels)`` of ``nodes`` from the label field of
    ``sources``, built on a third engine so the counters compared by
    :func:`assert_balls_identical` cover exactly the ball searches."""
    helper = SearchEngine(network, kernel="python")
    field = helper.multi_source_labels(sources, cached=False)
    return field.forward_distances(nodes), field.label[nodes].tolist()


def assert_balls_identical(network, nodes, nn_forward, labels, is_candidate):
    ep, ev = engines(network)
    rp = ep.batch_query_rows(nodes, nn_forward, labels, is_candidate)
    rv = ev.batch_query_rows(nodes, nn_forward, labels, is_candidate)
    # counts, flat members + dists, and ball sizes: the contract's
    # dtypes on both backends, and the same values bit for bit
    for p_col, v_col, dtype in zip(rp, rv, BALL_DTYPES):
        assert p_col.dtype == dtype and v_col.dtype == dtype
        assert np.array_equal(p_col, v_col)
    assert invariant_counters(ep) == invariant_counters(ev)
    return rp


@settings(max_examples=25, deadline=None)
@given(network=wide_cities(), seed=st.integers(0, 10 ** 6), m=st.integers(3, 11))
def test_batch_query_rows_bit_identical(network, seed, m):
    n = network.num_nodes
    sources = [u for u in range(n) if u % m == m - 1] or [seed % n]
    source_set = set(sources)
    is_candidate = [u % 3 == 0 and u not in source_set for u in range(n)]
    nodes = [u for u in range(n) if u % 2 == 0]
    nn_forward, labels = ball_inputs(network, sources, nodes)
    assert_balls_identical(network, nodes, nn_forward, labels, is_candidate)


class TestBatchQueryRowsCases:
    """Fixed ball batches at the edges of the vectorized backend's
    grouping: a zero radius, a lone row, balls wider than any tile, and
    one outlier radius inside an otherwise small-radius group."""

    #: 12 x 12 blocks of 0.75 km: about 8 km across.
    WIDE = grid_city(12, 12, block_km=0.75, seed=5)

    @staticmethod
    def _candidates(network, sources):
        source_set = set(sources)
        return [
            u % 2 == 1 and u not in source_set
            for u in range(network.num_nodes)
        ]

    def test_query_on_existing_stop_has_radius_zero(self):
        network = self.WIDE
        sources = list(range(0, network.num_nodes, 9))
        nodes = [sources[3], 1, sources[5], 2]
        nn_forward, labels = ball_inputs(network, sources, nodes)
        assert nn_forward[0] == 0.0 and nn_forward[2] == 0.0
        counts, _members, _dists, settled = assert_balls_identical(
            network, nodes, nn_forward, labels,
            self._candidates(network, sources),
        )
        # A radius-0 ball settles only its own node and has no members.
        assert (counts[0], settled[0]) == (0, 1)
        assert (counts[2], settled[2]) == (0, 1)

    def test_single_row(self):
        network = self.WIDE
        sources = [0, network.num_nodes - 1]
        nodes = [network.num_nodes // 2]
        nn_forward, labels = ball_inputs(network, sources, nodes)
        counts, _m, _d, _s = assert_balls_identical(
            network, nodes, nn_forward, labels,
            self._candidates(network, sources),
        )
        assert counts[0] > 0

    def test_balls_cross_group_edges(self):
        # Two stops in opposite corners: radii run to several km, so
        # every ball spills across tile edges into neighbouring groups.
        network = self.WIDE
        sources = [0, network.num_nodes - 1]
        nodes = list(range(network.num_nodes))
        nn_forward, labels = ball_inputs(network, sources, nodes)
        assert max(nn_forward) > 4.0
        assert_balls_identical(
            network, nodes, nn_forward, labels,
            self._candidates(network, sources),
        )

    def test_one_radius_far_above_its_group(self):
        # 39 x 39 blocks of 50 m fit in one 2 km square, so every row
        # shares a group; dense stops keep the radii tiny except for a
        # few rows whose radius covers the whole city.  The group's
        # union ball is then the whole city, and its rows x |U| block
        # is large enough to be split by radius.
        network = grid_city(39, 39, block_km=0.05, seed=9)
        n = network.num_nodes
        sources = list(range(0, n, 7))
        nodes = list(range(n))
        nn_forward, labels = ball_inputs(network, sources, nodes)
        outliers = (1, n // 2 + 1, n - 3)
        for i in outliers:
            nn_forward[i] = 50.0
        counts, _m, _d, settled = assert_balls_identical(
            network, nodes, nn_forward, labels,
            self._candidates(network, sources),
        )
        for i in outliers:  # each outlier's ball is the whole city
            assert settled[i] == n and counts[i] > n // 10
        assert max(
            size for i, size in enumerate(settled) if i not in outliers
        ) < n // 10
