"""The whole-program project model: parse once, query everywhere.

Per-file rules (RL002–RL009) see one file at a time; the invariants
PRs 3–6 introduced are *cross-module* — "nothing reachable from a pool
submission mutates module globals", "every phase entry point opens a
span".  This module gives those rules something to query: one pass over
every linted file extracts a compact, JSON-serializable
:class:`FileFacts` record (imports, function/class symbols with
decorator tags, call references, loop sites, pool-submission sites),
and :class:`ProjectModel` stitches the records into a module graph with
a name-resolution API (``resolve`` a dotted call in a module's scope to
the fully-qualified function it names).

Facts — not ASTs — are the unit of caching: they round-trip through
``as_dict``/``facts_from_dict``, so the incremental cache
(:mod:`repro.lint.cache`) can skip re-parsing unchanged files entirely
while the cross-module rules still run fresh on every invocation
(they are cheap graph queries; parsing is the cost worth skipping).

Resolution is deliberately conservative: a dotted reference that cannot
be traced through the import map or the module's own symbols resolves
to ``None`` and drops out of the call graph.  Cross-module rules
therefore under-approximate — they miss dynamic dispatch — but never
hallucinate an edge, which is the right failure mode for a linter.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

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

#: Pool methods that submit *task* callables to worker processes.
POOL_TASK_METHODS = frozenset(
    {"map", "map_async", "imap", "imap_unordered", "starmap", "starmap_async",
     "apply", "apply_async", "submit"}
)

#: Constructors whose result is a live search engine; shipping one into
#: a pool re-pickles caches and forks unshared state (RL010).
ENGINE_CONSTRUCTORS = frozenset({"SearchEngine", "engine_for"})

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
        nested: defined inside another function (not picklable by
            reference — pool submissions of these are RL010 fodder).
        is_method: defined directly inside a class body.
        is_public: module-level, non-underscore name.
        decorators: dotted decorator names (``traced``, ``obs.traced``).
        calls: ``(dotted_name, lineno)`` per call whose callee is a
            plain name or attribute chain (``plan_route``,
            ``sweep.pool_context``); method calls on dynamic values are
            not recorded.
        has_span: body opens a trace span — ``with span(...)`` /
            ``with tracing(...)`` / ``with <trace>.begin(...)`` — or the
            function is decorated ``@traced``.
        global_writes: names both declared ``global`` and assigned in
            the body.
        engine_locals: local names bound to a live engine in this body
            (assigned from ``SearchEngine(...)`` / ``engine_for(...)``,
            or parameters annotated ``SearchEngine``).
    """

    name: str
    qname: str
    lineno: int
    col: int
    nested: bool = False
    is_method: bool = False
    is_public: bool = False
    decorators: List[str] = field(default_factory=list)
    calls: List[Tuple[str, int]] = field(default_factory=list)
    has_span: bool = False
    global_writes: List[str] = field(default_factory=list)
    engine_locals: List[str] = field(default_factory=list)


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
class SubmissionFact:
    """One pool-submission site: a callable shipped to worker processes.

    Attributes:
        lineno / col: the submission call.
        kind: ``"task"`` (``pool.map(f, ...)`` family) or
            ``"initializer"`` (``Pool(initializer=f, initargs=...)``).
        callee_kind: ``"name"`` / ``"lambda"`` / ``"attribute"`` /
            ``"other"`` — how the callable was spelled.
        callee: the dotted text for ``name``/``attribute`` spellings.
        arg_names: bare names appearing anywhere in the shipped
            argument expressions (``initargs`` / the task iterable).
        arg_engine_call: an engine constructor is called inline in the
            shipped arguments.
        in_function: qname of the enclosing function, if any.
    """

    lineno: int
    col: int
    kind: str
    callee_kind: str
    callee: str = ""
    arg_names: List[str] = field(default_factory=list)
    arg_engine_call: bool = False
    in_function: Optional[str] = None


@dataclass
class FileFacts:
    """Everything the cross-module rules need to know about one file."""

    path: str
    module: str
    imports: List[Tuple[str, str]] = field(default_factory=list)
    imports_pools: bool = False
    functions: List[FunctionFact] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)
    loops: List[LoopFact] = field(default_factory=list)
    submissions: List[SubmissionFact] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def facts_from_dict(data: Dict[str, Any]) -> FileFacts:
    """Rebuild :class:`FileFacts` from ``as_dict`` output (cache load)."""
    return FileFacts(
        path=data["path"],
        module=data["module"],
        imports=[(str(a), str(b)) for a, b in data.get("imports", [])],
        imports_pools=bool(data.get("imports_pools", False)),
        functions=[
            FunctionFact(
                name=f["name"],
                qname=f["qname"],
                lineno=f["lineno"],
                col=f["col"],
                nested=f.get("nested", False),
                is_method=f.get("is_method", False),
                is_public=f.get("is_public", False),
                decorators=list(f.get("decorators", [])),
                calls=[(str(n), int(ln)) for n, ln in f.get("calls", [])],
                has_span=f.get("has_span", False),
                global_writes=list(f.get("global_writes", [])),
                engine_locals=list(f.get("engine_locals", [])),
            )
            for f in data.get("functions", [])
        ],
        classes=list(data.get("classes", [])),
        loops=[LoopFact(**loop) for loop in data.get("loops", [])],
        submissions=[SubmissionFact(**sub) for sub in data.get("submissions", [])],
    )


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a file path.

    ``src/repro/parallel/sweep.py`` → ``repro.parallel.sweep``;
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


def _is_engine_call(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    dotted = _dotted(expr.func)
    return dotted is not None and dotted.split(".")[-1] in ENGINE_CONSTRUCTORS


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
            if alias.name.split(".")[0] in ("multiprocessing", "concurrent"):
                self.facts.imports_pools = True
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_import_base(node)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            target = f"{base}.{alias.name}" if base else alias.name
            self.facts.imports.append((local, target))
        if base and base.split(".")[0] in ("multiprocessing", "concurrent"):
            self.facts.imports_pools = True
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
        enclosing = self._current_function()
        fact = FunctionFact(
            name=name,
            qname=self._qname(name),
            lineno=node.lineno,  # type: ignore[attr-defined]
            col=node.col_offset,  # type: ignore[attr-defined]
            nested=enclosing is not None,
            is_method=self._class_depth > 0 and enclosing is None,
            is_public=(
                enclosing is None
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
        for arg in _all_args(node):
            annotation = getattr(arg, "annotation", None)
            if annotation is not None:
                dotted = _dotted(annotation)
                if dotted and dotted.split(".")[-1] == "SearchEngine":
                    fact.engine_locals.append(arg.arg)
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
        if self._class_depth == 0 and not self._function_stack:
            self.facts.classes.append(node.name)
        self._scope.append(node.name)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1
        self._scope.pop()

    def visit_Global(self, node: ast.Global) -> None:
        fact = self._current_function()
        if fact is not None:
            for name in node.names:
                if name not in fact.global_writes:
                    fact.global_writes.append(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_engine_binding(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_engine_binding([node.target], node.value)
        self.generic_visit(node)

    def _record_engine_binding(
        self, targets: Iterable[ast.expr], value: ast.expr
    ) -> None:
        fact = self._current_function()
        if fact is None or not _is_engine_call(value):
            return
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in fact.engine_locals:
                fact.engine_locals.append(target.id)

    # -- spans, calls, submissions ------------------------------------

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
        self._maybe_record_submission(node, dotted)
        self.generic_visit(node)

    def _maybe_record_submission(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        fact = self._current_function()
        in_function = fact.qname if fact is not None else None
        # pool.map(func, iterable) and friends.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in POOL_TASK_METHODS
            and node.args
        ):
            self.facts.submissions.append(
                _submission(
                    node, node.args[0], node.args[1:], "task",
                    in_function=in_function,
                )
            )
        # SomethingPool(..., initializer=f, initargs=(...)).
        if dotted is not None and dotted.split(".")[-1].endswith("Pool"):
            initializer = None
            initargs: List[ast.expr] = []
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    initializer = keyword.value
                elif keyword.arg == "initargs":
                    initargs.append(keyword.value)
            if initializer is not None:
                self.facts.submissions.append(
                    _submission(
                        node, initializer, initargs, "initializer",
                        in_function=in_function,
                    )
                )

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


def _all_args(node: ast.AST) -> List[ast.arg]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    return [
        *getattr(args, "posonlyargs", []),
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]


def _csr_touches(node: ast.AST) -> set:
    """CSR-view / adjacency-dict attribute names read under ``node``."""
    touches = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in CSR_VIEW_ATTRS:
            touches.add(child.attr)
        elif isinstance(child, ast.Name) and child.id in CSR_VIEW_ATTRS:
            touches.add(child.id)
    return touches


def _submission(
    call: ast.Call,
    callee: ast.expr,
    shipped_args: List[ast.expr],
    kind: str,
    *,
    in_function: Optional[str],
) -> SubmissionFact:
    if isinstance(callee, ast.Lambda):
        callee_kind, callee_text = "lambda", ""
    elif isinstance(callee, ast.Name):
        callee_kind, callee_text = "name", callee.id
    elif isinstance(callee, ast.Attribute):
        callee_kind, callee_text = "attribute", _dotted(callee) or callee.attr
    else:
        callee_kind, callee_text = "other", ""
    arg_names: List[str] = []
    arg_engine_call = False
    for expr in shipped_args:
        for child in ast.walk(expr):
            if isinstance(child, ast.Name) and child.id not in arg_names:
                arg_names.append(child.id)
            if _is_engine_call(child):
                arg_engine_call = True
    return SubmissionFact(
        lineno=call.lineno,
        col=call.col_offset,
        kind=kind,
        callee_kind=callee_kind,
        callee=callee_text,
        arg_names=arg_names,
        arg_engine_call=arg_engine_call,
        in_function=in_function,
    )


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
        self.path_of: Dict[str, str] = {}
        for file_facts in facts:
            self.modules[file_facts.module] = file_facts
            self.path_of[file_facts.module] = file_facts.path
            for fact in file_facts.functions:
                self.functions[fact.qname] = fact

    def resolve(
        self, module: str, dotted: str, scope: Optional[str] = None
    ) -> Optional[str]:
        """Resolve a dotted reference in ``module``'s scope to a known
        function qname, or ``None`` when it cannot be traced statically.

        ``scope`` is the qname of the enclosing function, if any: a bare
        name used inside a function may refer to a def nested in it, and
        the innermost binding wins over the module-level one.
        """
        facts = self.modules.get(module)
        if facts is None:
            return None
        if scope is not None:
            nested = f"{scope}.{dotted}"
            if nested in self.functions:
                return nested
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

    def module_of(self, qname: str) -> Optional[str]:
        """The module a known function qname belongs to."""
        if qname not in self.functions:
            return None
        parts = qname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module
        return None


def build_model(facts: Iterable[FileFacts]) -> ProjectModel:
    """Convenience constructor (mirrors ``CallGraph`` in callgraph.py)."""
    return ProjectModel(facts)
