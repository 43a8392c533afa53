"""The whole-program project model: parse once, query everywhere.

Per-file rules (RL002–RL009) see one file at a time; some invariants
are *cross-module* — "every phase entry point opens a span, directly or
through a callee", "CSR hot loops live in the kernels package".  This
module gives those rules something to query: one pass over every linted
file extracts a compact :class:`FileFacts` record (imports, function
symbols with decorator tags and span usage, call references,
CSR-touching loop sites), and :class:`ProjectModel`
stitches the records into a module graph with a name-resolution API
(``resolve`` a dotted call in a module's scope to the fully-qualified
function it names).

Resolution is deliberately conservative: a dotted reference that cannot
be traced through the import map or the module's own symbols resolves
to ``None`` and drops out of the call graph.  Cross-module rules
therefore under-approximate — they miss dynamic dispatch — but never
hallucinate an edge, which is the right failure mode for a linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: The CSR flat-adjacency views and per-node adjacency dict; a Python
#: loop reading these is a hot loop the vectorized kernels should own
#: (RL012).
CSR_VIEW_ATTRS = frozenset(
    {"indptr", "targets", "costs", "np_indptr", "np_targets", "np_costs", "_adj"}
)

#: The unambiguous subset: ``targets``/``costs`` alone are everyday
#: identifiers (``ast.Assign.targets``, cost tables), so a loop only
#: counts as a CSR hot loop when it touches one of these *or* two
#: distinct view names together (the slice-and-relax signature).
_STRONG_CSR_ATTRS = frozenset(
    {"indptr", "np_indptr", "np_targets", "np_costs", "_adj"}
)


def loop_signal(touches: Iterable[str]) -> bool:
    """Whether a loop's touched-attribute set marks a CSR hot loop."""
    touched = set(touches)
    return bool(touched & _STRONG_CSR_ATTRS) or len(touched) >= 2


_SPAN_CALL_NAMES = frozenset({"span", "tracing"})
_SPAN_ATTR_NAMES = frozenset({"span", "tracing", "begin"})
_TRACED_NAMES = frozenset({"traced"})


@dataclass
class FunctionFact:
    """One function or method definition, as the project rules see it.

    Attributes:
        name: the bare function name.
        qname: fully qualified name (``module.func`` or
            ``module.Class.func``; nested defs get the enclosing
            function's qname as prefix).
        lineno / col: definition location (``ast`` conventions).
        is_public: module-level, non-underscore name.
        decorators: dotted decorator names (``traced``, ``obs.traced``).
        calls: ``(dotted_name, lineno)`` per call whose callee is a
            plain name or attribute chain (``plan_route``,
            ``obs.now``); method calls on dynamic values are
            not recorded.
        has_span: body opens a trace span — ``with span(...)`` /
            ``with tracing(...)`` / ``with <trace>.begin(...)`` — or the
            function is decorated ``@traced``.
    """

    name: str
    qname: str
    lineno: int
    col: int
    is_public: bool = False
    decorators: List[str] = field(default_factory=list)
    calls: List[Tuple[str, int]] = field(default_factory=list)
    has_span: bool = False


@dataclass
class LoopFact:
    """One innermost Python loop touching a CSR view / per-node dict.

    Only the *innermost* offending loop of a nest is recorded: the
    outer ``while heap:`` of a Dijkstra is noise once the inner
    neighbor-slice loop is flagged.
    """

    lineno: int
    col: int
    kind: str  # "for" | "while"
    touches: List[str] = field(default_factory=list)
    in_function: Optional[str] = None


@dataclass
class FileFacts:
    """Everything the cross-module rules need to know about one file."""

    path: str
    module: str
    imports: List[Tuple[str, str]] = field(default_factory=list)
    functions: List[FunctionFact] = field(default_factory=list)
    loops: List[LoopFact] = field(default_factory=list)


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a file path.

    ``src/repro/core/ebrr.py`` → ``repro.core.ebrr``;
    package ``__init__.py`` maps to the package itself.  Paths outside a
    recognizable package root fall back to the file stem, which keeps
    in-memory fixture snippets addressable.
    """
    normalized = path.replace("\\", "/")
    parts = [p for p in normalized.split("/") if p not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for root in ("src", "repro"):
        if root in parts:
            index = parts.index(root)
            tail = parts[index + 1 :] if root == "src" else parts[index:]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else "<unknown>"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_span_context(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Name):
        return func.id in _SPAN_CALL_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in _SPAN_ATTR_NAMES
    return False


class _FactsCollector(ast.NodeVisitor):
    """Single-pass extractor feeding one :class:`FileFacts`."""

    def __init__(self, path: str, module: str) -> None:
        self.facts = FileFacts(path=path, module=module)
        self._module = module
        self._scope: List[str] = []  # qname segments past the module
        self._function_stack: List[FunctionFact] = []
        self._class_depth = 0
        self._loop_stack: List[List[bool]] = []  # child-fired flags

    # -- scope helpers -------------------------------------------------

    def _qname(self, name: str) -> str:
        return ".".join([self._module, *self._scope, name])

    def _current_function(self) -> Optional[FunctionFact]:
        return self._function_stack[-1] if self._function_stack else None

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.facts.imports.append((local, target))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_import_base(node)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            target = f"{base}.{alias.name}" if base else alias.name
            self.facts.imports.append((local, target))
        self.generic_visit(node)

    def _resolve_import_base(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: drop `level` trailing segments from this
        # module's dotted path (one for the module itself, more for each
        # extra dot), then append the stated module, if any.
        parts = self._module.split(".")
        base_parts = parts[: -node.level] if node.level < len(parts) else []
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    # -- definitions ---------------------------------------------------

    def _visit_function(self, node: ast.AST, name: str) -> None:
        fact = FunctionFact(
            name=name,
            qname=self._qname(name),
            lineno=node.lineno,  # type: ignore[attr-defined]
            col=node.col_offset,  # type: ignore[attr-defined]
            is_public=(
                self._current_function() is None
                and self._class_depth == 0
                and not name.startswith("_")
            ),
            decorators=[
                d
                for d in (
                    _dotted(dec.func if isinstance(dec, ast.Call) else dec)
                    for dec in node.decorator_list  # type: ignore[attr-defined]
                )
                if d is not None
            ],
        )
        if any(d.split(".")[-1] in _TRACED_NAMES for d in fact.decorators):
            fact.has_span = True
        self.facts.functions.append(fact)
        self._function_stack.append(fact)
        self._scope.append(name)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:  # type: ignore[attr-defined]
                self.visit(child)
        self._scope.pop()
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1
        self._scope.pop()

    # -- spans and calls ---------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        fact = self._current_function()
        if fact is not None and any(
            _is_span_context(item.context_expr) for item in node.items
        ):
            fact.has_span = True
        self.generic_visit(node)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        fact = self._current_function()
        dotted = _dotted(node.func)
        if fact is not None and dotted is not None:
            fact.calls.append((dotted, node.lineno))
        self.generic_visit(node)

    # -- loops ---------------------------------------------------------

    def _visit_loop(self, node: ast.AST, kind: str, header: List[ast.expr]) -> None:
        touches = set()
        for expr in header:
            touches |= _csr_touches(expr)
        self._loop_stack.append([False])
        body_touches: set = set()
        for stmt in node.body:  # type: ignore[attr-defined]
            self.visit(stmt)
            body_touches |= _csr_touches(stmt)
        for stmt in getattr(node, "orelse", []):
            self.visit(stmt)
        child_fired = self._loop_stack.pop()[0]
        fired = loop_signal(touches) or (
            loop_signal(touches | body_touches) and not child_fired
        )
        if fired:
            fact = self._current_function()
            self.facts.loops.append(
                LoopFact(
                    lineno=node.lineno,  # type: ignore[attr-defined]
                    col=node.col_offset,  # type: ignore[attr-defined]
                    kind=kind,
                    touches=sorted(touches | body_touches),
                    in_function=fact.qname if fact is not None else None,
                )
            )
        if self._loop_stack and (fired or child_fired):
            self._loop_stack[-1][0] = True

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.target)
        self.visit(node.iter)
        self._visit_loop(node, "for", [node.iter])

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_loop(node, "while", [node.test])


def _csr_touches(node: ast.AST) -> set:
    """CSR-view / adjacency-dict attribute names read under ``node``."""
    touches = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in CSR_VIEW_ATTRS:
            touches.add(child.attr)
        elif isinstance(child, ast.Name) and child.id in CSR_VIEW_ATTRS:
            touches.add(child.id)
    return touches


def extract_facts(path: str, tree: ast.Module, module: Optional[str] = None) -> FileFacts:
    """Run the facts pass over one parsed file."""
    collector = _FactsCollector(path, module or module_name_for(path))
    collector.visit(tree)
    return collector.facts


class ProjectModel:
    """The resolved cross-module view the project rules query.

    Attributes:
        modules: :class:`FileFacts` per dotted module name.
        functions: every :class:`FunctionFact`, by qualified name.
    """

    def __init__(self, facts: Iterable[FileFacts]) -> None:
        self.modules: Dict[str, FileFacts] = {}
        self.functions: Dict[str, FunctionFact] = {}
        for file_facts in facts:
            self.modules[file_facts.module] = file_facts
            for fact in file_facts.functions:
                self.functions[fact.qname] = fact

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted reference in ``module``'s scope to a known
        function qname, or ``None`` when it cannot be traced statically."""
        facts = self.modules.get(module)
        if facts is None:
            return None
        parts = dotted.split(".")
        import_map = dict(facts.imports)
        head = parts[0]
        if head in import_map:
            candidate = ".".join([import_map[head], *parts[1:]])
        else:
            candidate = f"{module}.{dotted}"
        if candidate in self.functions:
            return candidate
        return None
