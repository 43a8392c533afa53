"""The incremental cache: hit/miss semantics, invalidation, and the
cold/warm performance gates."""

import ast
import json
import os
import time

from repro.lint import load_config, run_lint
from repro.lint.cache import (
    CACHE_SCHEMA_VERSION,
    LintCache,
    content_hash,
    ruleset_signature,
)
from repro.lint.project import extract_facts
from repro.lint.violations import Violation

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def sample_entry():
    source = "def f():\n    return 1\n"
    facts = extract_facts("src/repro/x.py", ast.parse(source))
    violations = [Violation("src/repro/x.py", 1, 0, "RL004", "msg")]
    return source, facts, violations


# ----------------------------------------------------------------------
# LintCache unit behaviour
# ----------------------------------------------------------------------


def test_store_lookup_round_trip(tmp_path):
    source, facts, violations = sample_entry()
    digest = content_hash(source.encode())
    cache = LintCache(path=str(tmp_path / "c.json"), signature="sig")
    assert cache.lookup("src/repro/x.py", digest) is None
    cache.store("src/repro/x.py", digest, facts, violations)
    cache.save()

    reloaded = LintCache.load(str(tmp_path / "c.json"), "sig")
    hit = reloaded.lookup("src/repro/x.py", digest)
    assert hit is not None
    got_facts, got_violations = hit
    assert got_facts == facts
    assert got_violations == violations
    assert reloaded.stats.hits == 1


def test_content_change_misses(tmp_path):
    source, facts, violations = sample_entry()
    cache = LintCache(path=str(tmp_path / "c.json"), signature="sig")
    cache.store("x.py", content_hash(source.encode()), facts, violations)
    assert cache.lookup("x.py", content_hash(b"changed")) is None
    assert cache.stats.misses == 1


def test_signature_mismatch_empties_the_cache(tmp_path):
    source, facts, violations = sample_entry()
    path = str(tmp_path / "c.json")
    cache = LintCache(path=path, signature=ruleset_signature(["RL001"]))
    cache.store("x.py", content_hash(source.encode()), facts, violations)
    cache.save()
    # A new/renamed rule changes the signature: everything invalidates.
    reloaded = LintCache.load(path, ruleset_signature(["RL001", "RL099"]))
    assert reloaded.entries == {}


def test_schema_mismatch_empties_the_cache(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION + 1,
                "signature": "sig",
                "entries": {"x.py": {}},
            }
        )
    )
    assert LintCache.load(str(path), "sig").entries == {}


def test_corrupt_cache_file_degrades_to_cold(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert LintCache.load(str(path), "sig").entries == {}


def test_prune_drops_dead_files(tmp_path):
    source, facts, violations = sample_entry()
    cache = LintCache(path=str(tmp_path / "c.json"), signature="sig")
    digest = content_hash(source.encode())
    cache.store("keep.py", digest, facts, violations)
    cache.store("gone.py", digest, facts, violations)
    cache.prune(["keep.py"])
    assert sorted(cache.entries) == ["keep.py"]


# ----------------------------------------------------------------------
# run_lint integration: warm runs skip parsing, results identical
# ----------------------------------------------------------------------


def make_tree(tmp_path):
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (pkg / "clean.py").write_text("def f():\n    return 1\n")
    (pkg / "bad.py").write_text("x = cost == 0.0\n")
    return pkg


def test_warm_run_hits_everything_and_agrees(tmp_path):
    pkg = make_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    cold = run_lint([str(pkg)], cache_path=cache_path)
    warm = run_lint([str(pkg)], cache_path=cache_path)
    assert cold.cache_stats.misses == cold.files == 2
    assert warm.cache_stats.hits == warm.files == 2
    assert warm.cache_stats.misses == 0
    assert warm.violations == cold.violations
    assert [v.rule_id for v in warm.violations] == ["RL004"]


def test_editing_one_file_invalidates_only_it(tmp_path):
    pkg = make_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    run_lint([str(pkg)], cache_path=cache_path)
    (pkg / "clean.py").write_text("def g():\n    return 2\n")
    run2 = run_lint([str(pkg)], cache_path=cache_path)
    assert run2.cache_stats.hits == 1
    assert run2.cache_stats.misses == 1


def test_select_and_config_do_not_touch_the_cache(tmp_path):
    # Filtering is downstream of the cache: a --select run after a full
    # run still hits (cached entries hold unfiltered results).
    pkg = make_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    run_lint([str(pkg)], cache_path=cache_path)
    narrowed = run_lint([str(pkg)], cache_path=cache_path, select=["RL002"])
    assert narrowed.cache_stats.hits == 2
    assert narrowed.violations == []


def test_no_cache_path_runs_cold_and_writes_nothing(tmp_path):
    pkg = make_tree(tmp_path)
    run = run_lint([str(pkg)])
    assert run.cache_stats is None
    assert list(tmp_path.glob("*.json")) == []


# ----------------------------------------------------------------------
# The performance gates (generous absolute bounds; CI re-checks)
# ----------------------------------------------------------------------


def test_cold_and_warm_runs_meet_the_time_gates(tmp_path):
    config = load_config(REPO_ROOT)
    paths = [os.path.join(REPO_ROOT, p) for p in ("src", "benchmarks", "examples")]
    cache_path = str(tmp_path / "cache.json")

    start = time.perf_counter()
    cold = run_lint(paths, config=config, cache_path=cache_path)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_lint(paths, config=config, cache_path=cache_path)
    warm_s = time.perf_counter() - start

    assert cold.violations == [] and warm.violations == []
    assert warm.cache_stats.hits == warm.files
    assert warm.cache_stats.misses == 0
    assert cold_s < 10.0, f"cold lint took {cold_s:.2f}s (gate: 10s)"
    assert warm_s < 2.0, f"warm lint took {warm_s:.2f}s (gate: 2s)"
    assert warm_s <= cold_s
