"""RL002 — strategy purity: rankers stay pure functions of ``(model, H)``.

The serving layer's result cache (the recommendation LRU, keyed on the
model generation) is only sound because a strategy's output depends on
nothing but the model generation and its inputs, and one generation's
model and engine are shared by every request thread.  A
strategy that mutates itself, the model, or — subtly — an index *set the
model handed out by reference* breaks that contract without failing any
unit test.

Inside every class defined under ``repro/core/strategies``, for every
method except ``__init__``:

- assigning to **any** attribute (``self.x = ...``, ``model._index = ...``)
  is a violation — strategies freeze at construction time;
- storing into a subscript whose base is *tainted* (reachable from ``self``
  or a parameter, e.g. ``model._goal_impls[g] = ...``) is a violation;
- calling a mutating method (``add_implementations``, ``setdefault``,
  ``update``, ``add`` ...) on a tainted receiver is a violation.  Taint
  propagates through plain assignment: ``space =
  model.implementation_space(H)`` taints ``space``, so ``space.add(aid)``
  is caught — a model may hand out its own index sets by reference, so
  the strategy must treat every returned set as shared, not a private
  copy (``space = set(model.implementation_space(H))`` copies, and the
  constructor call breaks the taint chain).

Local accumulators (``scores = {}``, ``heap = []``) stay fully mutable.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, Violation, chain_root, iter_methods
from repro.analysis.registry import register_rule

#: Path fragment selecting the modules this rule applies to.
STRATEGY_PATH_FRAGMENT = "repro/core/strategies"

#: Method names that mutate their receiver (model API + container API).
MUTATORS = frozenset(
    {
        "add_implementation",
        "add_implementations",
        "remove_implementation",
        "remove_implementations",
        "setdefault",
        "update",
        "clear",
        "pop",
        "popitem",
        "append",
        "appendleft",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "sort",
        "reverse",
        "move_to_end",
        "popleft",
        "__setitem__",
        "__delitem__",
    }
)


def _method_params(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = method.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _tainted_names(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names reachable from ``self``/parameters, to a fixpoint.

    Order-insensitive on purpose: a name that *ever* aliases model state is
    treated as tainted for the whole method.  That errs toward flagging —
    the right default for a purity gate — and renaming the local (or
    copying via a constructor call, which breaks the chain) resolves a
    false positive.
    """
    tainted = _method_params(method)
    tainted.add("self")
    changed = True
    while changed:
        changed = False
        for node in ast.walk(method):
            target: ast.expr | None = None
            source: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, source = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, source = node.target, node.value
            elif isinstance(node, ast.NamedExpr):
                target, source = node.target, node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                target, source = node.target, node.iter
            elif isinstance(node, ast.withitem) and node.optional_vars:
                target, source = node.optional_vars, node.context_expr
            elif isinstance(node, ast.comprehension):
                target, source = node.target, node.iter
            if not isinstance(target, ast.Name) or source is None:
                continue
            root = chain_root(source)
            if root in tainted and target.id not in tainted:
                tainted.add(target.id)
                changed = True
    return tainted


def _check_method(
    module: ModuleInfo,
    cls: ast.ClassDef,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    violations: list[Violation],
) -> None:
    tainted = _tainted_names(method)
    where = f"{cls.name}.{method.name}"
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            violations.append(
                module.violation(
                    "RL002",
                    node,
                    f"{where} assigns attribute .{node.attr}; strategies "
                    "are immutable after __init__",
                )
            )
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            root = chain_root(node.value)
            if root in tainted:
                violations.append(
                    module.violation(
                        "RL002",
                        node,
                        f"{where} writes into {root}-reachable state via "
                        "subscript; copy before mutating",
                    )
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            root = chain_root(node.func.value)
            if root in tainted:
                violations.append(
                    module.violation(
                        "RL002",
                        node,
                        f"{where} calls mutating .{node.func.attr}() on "
                        f"{root}-reachable state; strategies must not "
                        "mutate the model or themselves",
                    )
                )


@register_rule(
    "RL002",
    "strategy-purity",
    "Classes under repro/core/strategies must stay pure after __init__: no "
    "attribute assignment, no subscript writes into model-reachable state, "
    "no mutating calls (add_implementations, setdefault, update, ...) on "
    "the model, the view, or state reached through them.",
)
def check_strategy_purity(modules: list[ModuleInfo]) -> list[Violation]:
    violations: list[Violation] = []
    for module in modules:
        if STRATEGY_PATH_FRAGMENT not in module.posix:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in iter_methods(node):
                if method.name == "__init__":
                    continue
                _check_method(module, node, method, violations)
    return violations
