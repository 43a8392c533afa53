"""RL007 — no exact equality between float-typed expressions.

Costs, utilities, and walk distances in this codebase are sums of many
float edge weights; ``x == 0.0`` style guards work until a refactor
changes summation order by one ulp.  The same bug class appears with no
literal in sight: ``ratio == best[0]`` where both sides are ``float``
compares quantities that reached their values through different
summation orders, so the "equal" branch silently depends on ulp-level
drift (this exact bug hid the deterministic tie-break in the selection
loop).

Full type inference is mypy's job; this rule runs a deliberately small,
high-precision inference over each scope (module, class, and function
bodies) and only reports when it is *sure* an operand is a float:

* names annotated ``float`` (parameters or ``x: float = ...``);
* names assigned from an expression that must be a float: a float
  literal, a ``float(...)`` call, a true division (``/`` always yields
  a float on numbers), or another float-typed name;
* the expressions above used inline as a comparison operand — a float
  literal on either side (``cost == 0.0``, ``-1.5 != u``) included.

Decorators, default arguments, and class bases are checked in the scope
that evaluates them.  Integer-literal comparisons are not flagged
(``count == 0`` is exact).  Use :func:`math.isclose` or the shared
helpers in :mod:`repro.core.numeric` (``close``, ``is_zero``) instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Union

from ..registry import Rule, register

_FLOAT_CALLS = {"float"}

_Scope = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_float_annotation(annotation: ast.AST) -> bool:
    return isinstance(annotation, ast.Name) and annotation.id == "float"


class _ScopeInference(ast.NodeVisitor):
    """Collect the names provably float-typed within one scope.

    Nested function/class bodies are separate scopes and are skipped;
    the rule analyzes each of them with a fresh pass.
    """

    def __init__(self) -> None:
        self.float_names: Set[str] = set()

    def collect(self, body: List[ast.stmt]) -> Set[str]:
        for stmt in body:
            self.visit(stmt)
        return self.float_names

    # -- scope boundaries ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # separate scope

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass  # separate scope

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # separate scope

    # -- float-name sources ----------------------------------------------
    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and _is_float_annotation(node.annotation):
            self.float_names.add(node.target.id)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _expression_is_float(node.value, self.float_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.float_names.add(target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and (
            isinstance(node.op, ast.Div)
            or _expression_is_float(node.value, self.float_names)
        ):
            self.float_names.add(node.target.id)
        self.generic_visit(node)


def _expression_is_float(node: ast.AST, float_names: Set[str]) -> bool:
    """Whether ``node`` must evaluate to a float (conservative)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _expression_is_float(node.operand, float_names)
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Name):
        return node.id in float_names
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name) and node.func.id in _FLOAT_CALLS
        )
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division of numbers is always a float
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            return _expression_is_float(
                node.left, float_names
            ) or _expression_is_float(node.right, float_names)
    return False


@register
class FloatTypedEqualityRule(Rule):
    rule_id = "RL007"
    title = "float-typed-equality"
    rationale = (
        "exact ==/!= between float-typed expressions (float literals "
        "included) hides tie-breaks and guards behind ulp-level drift; "
        "use math.isclose or repro.core.numeric (close / is_zero)"
    )

    def run(self) -> None:
        self._check_scope(self.context.tree.body, set())
        for scope in ast.walk(self.context.tree):
            if isinstance(scope, ast.ClassDef):
                self._check_scope(scope.body, set())
            elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                float_args = {
                    arg.arg
                    for arg in _all_args(scope.args)
                    if arg.annotation is not None
                    and _is_float_annotation(arg.annotation)
                }
                self._check_scope(scope.body, float_args)

    def _check_scope(self, body: List[ast.stmt], seed: Set[str]) -> None:
        inference = _ScopeInference()
        inference.float_names |= seed
        float_names = inference.collect(body)
        for node in _walk_scope(body):
            if isinstance(node, ast.Compare):
                self._check_compare(node, float_names)

    def _check_compare(self, node: ast.Compare, float_names: Set[str]) -> None:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _expression_is_float(left, float_names) or _expression_is_float(
                right, float_names
            ):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self.report(
                    node,
                    f"exact {symbol} between float-typed expressions; use "
                    "math.isclose or repro.core.numeric (close / is_zero)",
                )


def _all_args(args: ast.arguments) -> List[ast.arg]:
    collected = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        collected.append(args.vararg)
    if args.kwarg is not None:
        collected.append(args.kwarg)
    return collected


def _outer_parts(scope: _Scope) -> List[ast.expr]:
    """The parts of a def or class the *enclosing* scope evaluates:
    decorators, plus default arguments or class bases/keywords."""
    parts = list(scope.decorator_list)
    if isinstance(scope, ast.ClassDef):
        return parts + scope.bases + [kw.value for kw in scope.keywords]
    defaults = [d for d in scope.args.kw_defaults if d is not None]
    return parts + scope.args.defaults + defaults


def _walk_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes one scope evaluates: nested function/class bodies are
    skipped (they get their own inference pass), their decorators,
    defaults, and bases are not."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            stack.extend(_outer_parts(node))
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
