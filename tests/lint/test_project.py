"""The facts pass, the project model, and the call graph — the
substrate the cross-module rules (RL011, RL012) query."""

import ast
import textwrap

from repro.lint import module_name_for
from repro.lint.callgraph import CallGraph
from repro.lint.project import ProjectModel, extract_facts, loop_signal


def facts(source, path="src/repro/mod.py"):
    tree = ast.parse(textwrap.dedent(source))
    return extract_facts(path, tree)


def model_of(sources):
    return ProjectModel(
        facts(src, path=path) for path, src in sources.items()
    )


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------


def test_module_name_for_maps_src_layout():
    assert module_name_for("src/repro/parallel/fanout.py") == "repro.parallel.fanout"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("src/repro/core/ebrr.py") == "repro.core.ebrr"


def test_module_name_for_falls_back_to_stem():
    assert module_name_for("benchmarks/bench_fullscale.py") == "bench_fullscale"
    assert module_name_for("snippet.py") == "snippet"


# ----------------------------------------------------------------------
# Facts: imports, functions, spans
# ----------------------------------------------------------------------


def test_imports_recorded():
    collected = facts(
        """
        import multiprocessing
        from repro.core.ebrr import plan_route as plan
        """
    )
    assert ("multiprocessing", "multiprocessing") in collected.imports
    assert ("plan", "repro.core.ebrr.plan_route") in collected.imports


def test_relative_imports_resolve_against_the_module():
    collected = facts(
        "from ..network.engine import engine_for\n",
        path="src/repro/core/ebrr.py",
    )
    assert ("engine_for", "repro.network.engine.engine_for") in collected.imports


def test_function_facts_shape():
    collected = facts(
        """
        def plan_stuff():
            def inner():
                pass
            return inner

        def _private():
            pass

        class Planner:
            def method(self):
                pass
        """
    )
    by_name = {f.qname: f for f in collected.functions}
    assert by_name["repro.mod.plan_stuff"].is_public
    assert not by_name["repro.mod.plan_stuff.inner"].is_public
    assert not by_name["repro.mod._private"].is_public
    assert not by_name["repro.mod.Planner.method"].is_public


def test_span_detection_with_and_decorator_and_begin():
    collected = facts(
        """
        from repro.obs import span, traced

        def direct():
            with span("phase"):
                pass

        @traced("phase")
        def decorated():
            pass

        def via_trace(trace):
            with trace.begin("phase"):
                pass

        def bare():
            pass
        """
    )
    spans = {f.name: f.has_span for f in collected.functions}
    assert spans == {
        "direct": True,
        "decorated": True,
        "via_trace": True,
        "bare": False,
    }


def test_calls_record_dotted_names():
    collected = facts(
        """
        from repro.core import ebrr

        def driver(instance, config):
            return ebrr.plan_route(instance, config)
        """
    )
    driver = collected.functions[0]
    assert ("ebrr.plan_route", 5) in driver.calls


# ----------------------------------------------------------------------
# Facts: loops
# ----------------------------------------------------------------------


def test_loop_signal_thresholds():
    assert loop_signal({"indptr"})            # strong attr alone
    assert loop_signal({"_adj"})
    assert loop_signal({"targets", "costs"})  # two weak attrs together
    assert not loop_signal({"targets"})       # weak alone: everyday name
    assert not loop_signal({"costs"})
    assert not loop_signal(set())


def test_only_innermost_offending_loop_recorded():
    collected = facts(
        """
        def search(csr, heap):
            while heap:
                u = heap.pop()
                for i in range(csr.indptr[u], csr.indptr[u + 1]):
                    relax(csr.targets[i], csr.costs[i])
        """
    )
    assert len(collected.loops) == 1
    loop = collected.loops[0]
    assert loop.kind == "for"
    assert "indptr" in loop.touches
    assert loop.in_function == "repro.mod.search"


def test_loop_without_csr_touches_not_recorded():
    collected = facts(
        """
        def harmless(rows):
            for row in rows:
                print(row)
        """
    )
    assert collected.loops == []


# ----------------------------------------------------------------------
# Model resolution and the call graph
# ----------------------------------------------------------------------


TWO_MODULES = {
    "src/repro/core/phase.py": """
        from repro.obs import span

        def run_phase(instance):
            with span("phase"):
                return helper(instance)

        def helper(instance):
            return instance
    """,
    "src/repro/core/driver.py": """
        from repro.core.phase import run_phase

        def plan_all(instances):
            return [run_phase(i) for i in instances]
    """,
}


def test_resolve_through_imports_and_locals():
    model = model_of({p: textwrap.dedent(s) for p, s in TWO_MODULES.items()})
    assert (
        model.resolve("repro.core.driver", "run_phase")
        == "repro.core.phase.run_phase"
    )
    assert (
        model.resolve("repro.core.phase", "helper") == "repro.core.phase.helper"
    )
    assert model.resolve("repro.core.driver", "np.zeros") is None


def test_callgraph_edges_and_reachability():
    model = model_of({p: textwrap.dedent(s) for p, s in TWO_MODULES.items()})
    graph = CallGraph(model)
    assert graph.callees("repro.core.driver.plan_all") == [
        "repro.core.phase.run_phase"
    ]
    assert graph.callees("repro.core.phase.run_phase") == [
        "repro.core.phase.helper"
    ]
    reached = graph.reachable_from(["repro.core.driver.plan_all"])
    assert "repro.core.phase.helper" in reached
    # Transitive span coverage: the driver reaches a span-opening callee.
    assert graph.reaches(
        "repro.core.driver.plan_all", lambda f: f.has_span
    )
    assert not graph.reaches(
        "repro.core.phase.helper", lambda f: f.has_span
    )
