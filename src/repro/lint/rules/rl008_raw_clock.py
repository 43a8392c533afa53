"""RL008 — raw clock reads belong to :mod:`repro.obs`.

Phase timings are derived from trace spans (see
:func:`repro.obs.trace.phase_timings`), so a timing measured with a
bare clock pair lives outside the trace: it cannot show up in a
``--trace`` export, the summary tree, or the diagnostics report, and it
silently drifts from the span-derived numbers next to it.
``time.time()`` is worse still: it is wall-clock, so NTP slews and DST
jumps make its differences wrong by arbitrary amounts.  All clock reads
go through :mod:`repro.obs.clock` — ``now()`` for a raw reading,
``stopwatch``/``timed`` for sinks, ``span`` for anything that should
appear in the trace.  The rule flags ``time.time()`` and
``time.perf_counter()`` calls and ``from time import time`` /
``perf_counter`` imports everywhere outside ``repro/obs/``, the single
sanctioned owner of the clock.  A wall-clock timestamp that labels a
report (rather than measuring a duration) is legitimate; suppress that
line explicitly.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register

#: Path fragments this rule never fires in: the sanctioned clock package.
_EXEMPT_FRAGMENTS = ("repro/obs/", "repro\\obs\\")

_CLOCKS = ("time", "perf_counter")


@register
class RawClockRule(Rule):
    rule_id = "RL008"
    title = "raw-clock-read"
    rationale = (
        "bare time.time()/time.perf_counter() timings bypass the trace "
        "substrate (and time.time() drifts under NTP/DST); use repro.obs "
        "(now, stopwatch, span) so every measurement shows up in --trace "
        "exports and the diagnostics report"
    )

    def run(self) -> None:
        if any(fragment in self.context.path for fragment in _EXEMPT_FRAGMENTS):
            return
        self.visit(self.context.tree)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CLOCKS
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self.report(
                node,
                f"raw time.{func.attr}() outside repro.obs; use "
                "repro.obs.now()/stopwatch/span so the measurement joins "
                "the trace",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCKS:
                    self.report(
                        node,
                        f"importing time.{alias.name} bypasses repro.obs; "
                        "import repro.obs.now instead",
                    )
        self.generic_visit(node)
