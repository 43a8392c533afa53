"""Fixture-snippet tests: every rule fires on a violating snippet and
stays silent on the compliant rewrite."""

import textwrap

import pytest

from repro.lint import check_source


def lint(snippet, **kwargs):
    return check_source(textwrap.dedent(snippet), path="snippet.py", **kwargs)


def rule_ids(snippet, **kwargs):
    return [v.rule_id for v in lint(snippet, **kwargs)]


# ----------------------------------------------------------------------
# RL002 — cache-invalidation hazard
# ----------------------------------------------------------------------


def test_rl002_fires_on_foreign_writes():
    snippet = """
        def corrupt(network, u, v, cost):
            network._adj[u].append((v, cost))
            network._edge_costs[(u, v)] = cost
            del network._coords[u]
    """
    assert rule_ids(snippet) == ["RL002"] * 3


def test_rl002_fires_through_attribute_chains():
    snippet = """
        class Planner:
            def sneak(self, u, v, cost):
                self._network._adj[u].append((v, cost))
    """
    assert rule_ids(snippet) == ["RL002"]


def test_rl002_silent_on_own_state_and_reads():
    snippet = """
        class Clustering:
            def __init__(self, coords):
                self._coords = list(coords)
                self._adj = {}

            def rebuild(self):
                self._coords.sort()

        def read_only(network):
            return len(network._adj), dict(network._edge_costs)
    """
    assert rule_ids(snippet) == []


# ----------------------------------------------------------------------
# RL003 — nondeterminism
# ----------------------------------------------------------------------


def test_rl003_fires_on_global_rng():
    snippet = """
        import random
        import numpy as np

        def jitter(xs):
            random.shuffle(xs)
            return xs[0] + np.random.normal()
    """
    assert rule_ids(snippet) == ["RL003", "RL003"]


def test_rl003_fires_on_bare_set_iteration():
    assert rule_ids("for node in set(path):\n    print(node)\n") == ["RL003"]
    assert rule_ids("result = [f(x) for x in {1, 2, 3}]\n") == ["RL003"]


def test_rl003_silent_on_seeded_generators_and_sorted_sets():
    snippet = """
        import random
        import numpy as np

        def sample(seed, items):
            rng = np.random.default_rng(seed)
            local = random.Random(seed)
            order = sorted(set(items))
            for node in order:
                pass
            return rng.normal() + local.random()
    """
    assert rule_ids(snippet) == []


def test_rl003_silent_on_set_membership():
    # Membership tests are order-independent; only iteration is flagged.
    assert rule_ids("hit = [h for h in hours if h not in set(night)]\n") == []


# ----------------------------------------------------------------------
# RL005 — mutable default arguments
# ----------------------------------------------------------------------


def test_rl005_fires_on_mutable_defaults():
    snippet = """
        def accumulate(x, acc=[]):
            acc.append(x)
            return acc

        def index(key, table={}):
            return table.setdefault(key, set())

        def pick(xs, seen=set()):
            return [x for x in xs if x not in seen]
    """
    assert rule_ids(snippet) == ["RL005"] * 3


def test_rl005_silent_on_none_default():
    snippet = """
        def accumulate(x, acc=None):
            if acc is None:
                acc = []
            acc.append(x)
            return acc
    """
    assert rule_ids(snippet) == []


# ----------------------------------------------------------------------
# RL007 — float-typed equality (float literals included)
# ----------------------------------------------------------------------


def test_rl007_fires_on_float_literal_comparison():
    assert rule_ids("ok = cost == 0.0\n") == ["RL007"]
    assert rule_ids("bad = 1.5 != utility\n") == ["RL007"]
    assert rule_ids("neg = walk == -0.0\n") == ["RL007"]


def test_rl007_silent_on_tolerant_and_integer_compares():
    snippet = """
        import math
        from repro.core.numeric import is_zero

        def guard(cost, count):
            return is_zero(cost) or math.isclose(cost, 1.0) or count == 0
    """
    assert rule_ids(snippet) == []


def test_rl007_silent_on_ordering_compares():
    assert rule_ids("better = cost < 0.5 or cost >= 1.0\n") == []


def test_rl007_fires_in_class_bodies_decorators_and_defaults():
    # Scopes the module/function passes alone would miss: a class body,
    # a decorator argument, and a default value (both evaluated by the
    # enclosing scope), a class keyword, and a lambda's default.
    snippet = """
        class Limits:
            UNIT: float = 1.0
            exact = UNIT == 1.0

        @register(strict=cost == 0.0)
        def plan(flag=cost != 1.5, *, other=-0.5 == cost):
            pass

        class Tuned(Base, exact=cost == 2.0):
            pass

        pick = lambda x=cost == 0.5: x
    """
    assert rule_ids(snippet) == ["RL007"] * 6


def test_rl007_fires_on_float_annotated_params():
    snippet = """
        def pick(ratio: float, best: float) -> bool:
            return ratio == best
    """
    assert rule_ids(snippet) == ["RL007"]


def test_rl007_fires_on_inferred_float_locals():
    snippet = """
        def gain(parts, total):
            share = total / len(parts)
            accumulated = 0.0
            return share != accumulated
    """
    assert rule_ids(snippet) == ["RL007"]


def test_rl007_fires_on_inline_division_compare():
    snippet = """
        def same_ratio(a, b, c, d):
            return a / b == c / d
    """
    assert rule_ids(snippet) == ["RL007"]


def test_rl007_silent_on_integer_compares():
    snippet = """
        def count_match(old, new, items):
            total = len(items)
            return old == new or total != 0
    """
    assert rule_ids(snippet) == []


def test_rl007_silent_on_tolerant_compares():
    snippet = """
        import math
        from repro.core.numeric import close

        def guard(ratio: float, best: float) -> bool:
            return close(ratio, best) or math.isclose(ratio, best)
    """
    assert rule_ids(snippet) == []


def test_rl007_scopes_are_independent():
    # The outer float name must not leak into the nested function's
    # scope inference (the nested compare is over untyped names).
    snippet = """
        def outer(items):
            share = 1.0 * len(items)

            def inner(share, other):
                return share == other

            return inner(share, share)
    """
    assert rule_ids(snippet) == []


# ----------------------------------------------------------------------
# RL008 — raw clock reads outside repro.obs
# ----------------------------------------------------------------------


def test_rl008_fires_on_time_time():
    snippet = """
        import time

        def run(f):
            start = time.time()
            f()
            return time.time() - start
    """
    assert rule_ids(snippet) == ["RL008", "RL008"]


def test_rl008_fires_on_from_time_import_time():
    assert rule_ids("from time import time\n") == ["RL008"]


def test_rl008_fires_on_raw_perf_counter():
    snippet = """
        import time

        def run(f):
            start = time.perf_counter()
            f()
            return time.perf_counter() - start
    """
    assert rule_ids(snippet) == ["RL008", "RL008"]


def test_rl008_fires_on_from_time_import_perf_counter():
    assert rule_ids("from time import perf_counter\n") == ["RL008"]


def test_rl008_silent_on_obs_primitives():
    snippet = """
        from repro.obs import now, span, stopwatch

        def run(f, sink):
            with stopwatch(sink, "query"), span("query"):
                f()
            return now()
    """
    assert rule_ids(snippet) == []


def test_rl008_exempts_the_sanctioned_clock_module():
    snippet = "import time\nstart = time.perf_counter() + time.time()\n"
    assert (
        check_source(snippet, path="src/repro/obs/clock.py", select=["RL008"])
        == []
    )


def test_rl008_fires_outside_the_exempt_paths():
    snippet = "import time\nstart = time.perf_counter()\n"
    for path in ("src/repro/core/ebrr.py", "src/repro/eval/timing.py"):
        violations = check_source(snippet, path=path, select=["RL008"])
        assert [v.rule_id for v in violations] == ["RL008"]


# ----------------------------------------------------------------------
# RL009 — kernel confinement
# ----------------------------------------------------------------------

RL009_POSITIVES = [
    "from repro.network.kernels import PythonKernel\n",
    "from repro.network.kernels.vectorized import VectorizedKernel\n",
    "from ..network.kernels import resolve_kernel\n",
    "from .kernels.python import PythonKernel\n",
    "import repro.network.kernels\n",
    "import repro.network.kernels.python as backend\n",
    "from repro.network.engine import PythonKernel\n",
]


@pytest.mark.parametrize("snippet", RL009_POSITIVES)
def test_rl009_fires(snippet):
    assert "RL009" in rule_ids(snippet, select=["RL009"])


def test_rl009_silent_on_name_based_selection():
    snippet = """
        from repro.network.engine import SearchEngine, available_kernels

        def build(network, name):
            assert name in available_kernels()
            return SearchEngine(network, kernel=name)
    """
    assert rule_ids(snippet, select=["RL009"]) == []


def test_rl009_exempts_the_engine_and_the_package():
    # The exemption lives in pyproject's [tool.reprolint.rule-excludes];
    # mirror it here.
    from repro.lint.config import LintConfig

    config = LintConfig(
        rule_excludes={
            "RL009": [
                "src/repro/network/engine.py",
                "src/repro/network/kernels/*",
            ]
        }
    )
    snippet = "from .kernels import resolve_kernel\n"
    assert (
        check_source(
            snippet,
            path="src/repro/network/engine.py",
            config=config,
            select=["RL009"],
        )
        == []
    )
    snippet = "from .python import PythonKernel\n"
    assert (
        check_source(
            snippet,
            path="src/repro/network/kernels/vectorized.py",
            config=config,
            select=["RL009"],
        )
        == []
    )


def test_rl009_fires_outside_the_exempt_paths():
    violations = check_source(
        "from repro.network.kernels import VectorizedKernel\n",
        path="src/repro/core/ebrr.py",
        select=["RL009"],
    )
    assert [v.rule_id for v in violations] == ["RL009"]
