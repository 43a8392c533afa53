"""Fire and pass fixtures for the cross-module rules RL011 and RL012.

Each rule gets at least one snippet it must flag and one semantically
close snippet it must stay silent on; the acceptance criterion for the
whole-program analyzer is exactly this pair per rule.
"""

import textwrap

from repro.lint import check_source, check_sources


def lint(source, path, select):
    return check_source(textwrap.dedent(source), path=path, select=[select])


def lint_many(sources, select):
    return check_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()},
        select=[select],
    )


# ----------------------------------------------------------------------
# RL011 — span coverage of phase entry points
# ----------------------------------------------------------------------


def test_rl011_fires_on_uncovered_phase_entry_point():
    violations = lint(
        """
        def preprocess_things(instance):
            return [instance]
        """,
        "src/repro/core/newphase.py",
        "RL011",
    )
    assert [v.rule_id for v in violations] == ["RL011"]
    assert "preprocess_things" in violations[0].message


def test_rl011_passes_direct_span():
    violations = lint(
        """
        from repro.obs import span

        def preprocess_things(instance):
            with span("preprocess"):
                return [instance]
        """,
        "src/repro/core/newphase.py",
        "RL011",
    )
    assert violations == []


def test_rl011_passes_traced_decorator():
    violations = lint(
        """
        from repro.obs import traced

        @traced("run")
        def run_things(instance):
            return [instance]
        """,
        "src/repro/core/newphase.py",
        "RL011",
    )
    assert violations == []


def test_rl011_coverage_is_transitive_across_modules():
    sources = {
        "src/repro/core/wrapper.py": """
            from repro.core.inner import run_inner

            def plan_wrapped(instance):
                return run_inner(instance)
        """,
        "src/repro/core/inner.py": """
            from repro.obs import span

            def run_inner(instance):
                with span("inner"):
                    return instance
        """,
    }
    assert lint_many(sources, "RL011") == []


def test_rl011_ignores_private_and_non_phase_names():
    violations = lint(
        """
        def _preprocess_private(instance):
            return instance

        def format_table(rows):
            return rows
        """,
        "src/repro/core/helpers.py",
        "RL011",
    )
    assert violations == []


def test_rl011_fires_on_uncovered_serve_handler():
    violations = lint(
        """
        def handle_plan(tenant, payload):
            return tenant.plan(payload)
        """,
        "src/repro/serve/handlers.py",
        "RL011",
    )
    assert [v.rule_id for v in violations] == ["RL011"]
    assert "handle_plan" in violations[0].message


def test_rl011_passes_spanned_serve_handler():
    violations = lint(
        """
        from repro.obs import span

        def handle_plan(tenant, payload):
            with span("serve.plan"):
                return tenant.plan(payload)
        """,
        "src/repro/serve/handlers.py",
        "RL011",
    )
    assert violations == []


def test_rl011_ignores_modules_outside_phase_packages():
    violations = lint(
        """
        def run_export(trace):
            return trace
        """,
        "src/repro/obs/export.py",
        "RL011",
    )
    assert violations == []


# ----------------------------------------------------------------------
# RL012 — kernel hot-loop confinement
# ----------------------------------------------------------------------


HOT_LOOP = """
    def relax_all(csr, dist, heap):
        while heap:
            u = heap.pop()
            for i in range(csr.indptr[u], csr.indptr[u + 1]):
                dist[csr.targets[i]] = dist[u] + csr.costs[i]
"""


def test_rl012_fires_outside_kernels():
    violations = lint(HOT_LOOP, "src/repro/core/fastpath.py", "RL012")
    assert [v.rule_id for v in violations] == ["RL012"]
    assert "repro.network.kernels" in violations[0].message
    # Innermost-only: the while wrapper is not separately reported.
    assert len(violations) == 1


def test_rl012_allows_the_kernels_package():
    violations = lint(
        HOT_LOOP, "src/repro/network/kernels/scalar.py", "RL012"
    )
    assert violations == []


def test_rl012_fires_on_adjacency_dict_walks():
    violations = lint(
        """
        def neighbors(graph, node):
            out = []
            for target, cost in graph._adj[node]:
                out.append((target, cost))
            return out
        """,
        "src/repro/transit/walk.py",
        "RL012",
    )
    assert [v.rule_id for v in violations] == ["RL012"]


def test_rl012_silent_on_everyday_identifiers():
    # `targets`/`costs` alone are common names (ast.Assign.targets,
    # cost tables) — one weak attribute must not fire.
    violations = lint(
        """
        def tally(assign, table):
            total = 0.0
            for name in assign.targets:
                total += table[name]
            return total
        """,
        "src/repro/core/tally.py",
        "RL012",
    )
    assert violations == []


def test_rl012_inline_suppression_and_baseline_sites_hold():
    # The known hot loop carries an inline suppression; the shipped tree
    # must stay clean under the repo config with the suppression count
    # pinned (test_repo_source_tree_is_clean) — here we check the raw
    # rule still SEES it, so the suppression is load-bearing, not stale.
    import os

    from repro.lint import load_config

    repo = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    journey = os.path.join(repo, "src", "repro", "transit", "journey.py")
    with open(journey, "r", encoding="utf-8") as handle:
        source = handle.read()
    stripped = source.replace("  # reprolint: disable=RL012", "")
    config = load_config(repo)
    violations = check_source(
        stripped, path=journey, config=config, select=["RL012"]
    )
    assert [v.rule_id for v in violations] == ["RL012"]
