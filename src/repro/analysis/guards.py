"""RL001 — lock-discipline for attributes registered in ``_GUARDED_BY``.

A module that owns lock-protected state declares it in a module-level map::

    _GUARDED_BY = {
        "LRUCache._data": "_lock",              # with self._lock: only
        "IncrementalGoalModel._dedup": "<caller>",  # owner's methods only
        "CachedModelView._engine": "<final>",   # assigned in __init__ only
    }

Three guard kinds:

- a **lock attribute name** (``"_lock"``): inside the owning class, every
  read/write of the attribute must sit under ``with self._lock`` (plain
  locks/conditions) or ``with self._lock.read_locked()`` /
  ``.write_locked()`` (the RWLock context managers).  ``__init__`` is
  exempt (the object is not yet shared), as is any method whose name ends
  in ``_locked`` — the repo's caller-holds-the-lock naming convention.
  Nested functions and lambdas defined inside a ``with`` block are treated
  as running *without* the lock: closures outlive the block.
- ``"<caller>"``: the state is externally synchronized (e.g. the
  mutation log's maps live under ``ModelManager``'s RWLock).
  Only methods of a class that initializes the attribute in its own
  ``__init__`` may touch it, and only through ``self`` — any reach-in from
  another class, a free function, or module level is a violation, in every
  linted file.
- ``"<final>"``: assigned in ``__init__`` and never rebound.  Reads are
  unrestricted; stores/deletes outside the owner's ``__init__`` (or
  through any receiver other than ``self``) are violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Union

from repro.analysis.engine import (
    ModuleInfo,
    Violation,
    init_assigned_attrs,
    iter_classes,
    iter_methods,
    literal_str,
)
from repro.analysis.registry import register_rule

CALLER = "<caller>"
FINAL = "<final>"

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


@dataclass(frozen=True)
class GuardEntry:
    """One parsed ``_GUARDED_BY`` entry."""

    cls: str
    attr: str
    guard: str
    node: ast.AST  # the key node, for reporting map problems


def _parse_guard_maps(
    module: ModuleInfo, violations: list[Violation]
) -> list[GuardEntry]:
    """Read the module-level ``_GUARDED_BY`` dict(s), validating shape."""
    entries: list[GuardEntry] = []
    for stmt in module.tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if not (isinstance(target, ast.Name) and target.id == "_GUARDED_BY"):
            continue
        if not isinstance(value, ast.Dict):
            violations.append(
                module.violation(
                    "RL001", stmt, "_GUARDED_BY must be a literal dict"
                )
            )
            continue
        for key_node, value_node in zip(value.keys, value.values):
            key = literal_str(key_node) if key_node is not None else None
            guard = literal_str(value_node)
            if key is None or guard is None:
                violations.append(
                    module.violation(
                        "RL001",
                        key_node or value_node,
                        "_GUARDED_BY entries must be 'Class.attr': 'guard' "
                        "string literals",
                    )
                )
                continue
            if key.count(".") != 1 or not all(key.split(".")):
                violations.append(
                    module.violation(
                        "RL001",
                        key_node,
                        f"_GUARDED_BY key {key!r} must be 'ClassName.attr'",
                    )
                )
                continue
            if not guard:
                violations.append(
                    module.violation(
                        "RL001", value_node, f"empty guard for {key!r}"
                    )
                )
                continue
            cls, attr = key.split(".")
            entries.append(
                GuardEntry(cls=cls, attr=attr, guard=guard, node=key_node)
            )
    return entries


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _locks_acquired(item: ast.withitem, lock_names: frozenset[str]) -> set[str]:
    """Lock attributes of ``self`` referenced anywhere in a with-item.

    Matches both ``with self._lock:`` and
    ``with self._lock.read_locked():`` — any mention of ``self.<lock>``
    inside the context expression counts as acquiring that lock.
    """
    acquired: set[str] = set()
    for sub in ast.walk(item.context_expr):
        if _is_self_attr(sub) and sub.attr in lock_names:
            acquired.add(sub.attr)
    return acquired


def _check_lock_body(
    module: ModuleInfo,
    cls: ast.ClassDef,
    node: ast.AST,
    held: frozenset[str],
    guarded: dict[str, str],
    lock_names: frozenset[str],
    violations: list[Violation],
) -> None:
    """Recursive walk tracking which locks are held at each node."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        acquired: set[str] = set()
        for item in node.items:
            # The context expression itself evaluates before acquisition.
            _check_lock_body(
                module, cls, item.context_expr, held, guarded, lock_names,
                violations,
            )
            acquired |= _locks_acquired(item, lock_names)
        inner = held | acquired
        for stmt in node.body:
            _check_lock_body(
                module, cls, stmt, inner, guarded, lock_names, violations
            )
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # A closure may run after the with-block exits: analyze it as
        # holding no locks.
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            _check_lock_body(
                module, cls, stmt, frozenset(), guarded, lock_names, violations
            )
        return
    if _is_self_attr(node) and node.attr in guarded:
        lock = guarded[node.attr]
        if lock not in held:
            violations.append(
                module.violation(
                    "RL001",
                    node,
                    f"{cls.name}.{node.attr} is guarded by self.{lock}; "
                    f"access it inside 'with self.{lock}'",
                )
            )
        return
    for child in ast.iter_child_nodes(node):
        _check_lock_body(
            module, cls, child, held, guarded, lock_names, violations
        )


def _check_lock_guards(
    module: ModuleInfo,
    entries: list[GuardEntry],
    violations: list[Violation],
) -> None:
    """Enforce lock guards inside the owning classes of this module."""
    by_class: dict[str, dict[str, str]] = {}
    for entry in entries:
        if entry.guard in (CALLER, FINAL):
            continue
        by_class.setdefault(entry.cls, {})[entry.attr] = entry.guard
    if not by_class:
        return
    for classdef in iter_classes(module.tree):
        guarded = by_class.get(classdef.name)
        if not guarded:
            continue
        lock_names = frozenset(guarded.values())
        for method in iter_methods(classdef):
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            for stmt in method.body:
                _check_lock_body(
                    module, classdef, stmt, frozenset(), guarded, lock_names,
                    violations,
                )


def _walk_with_class(
    node: ast.AST, cls: ast.ClassDef | None = None
) -> list[tuple[ast.AST, ast.ClassDef | None]]:
    """Flatten the tree into (node, innermost enclosing class) pairs."""
    out: list[tuple[ast.AST, ast.ClassDef | None]] = []
    for child in ast.iter_child_nodes(node):
        inner = child if isinstance(child, ast.ClassDef) else cls
        out.append((child, inner))
        out.extend(_walk_with_class(child, inner))
    return out


def _check_external_guards(
    modules: list[ModuleInfo],
    caller_attrs: dict[str, set[str]],
    final_attrs: dict[str, set[str]],
    violations: list[Violation],
) -> None:
    """Enforce ``<caller>`` and ``<final>`` guards across every module.

    Ownership is resolved structurally: a class that assigns the attribute
    on ``self`` in its own ``__init__`` owns its copy (this also keeps
    unrelated classes that happen to reuse an attribute name out of scope).
    """
    watched = set(caller_attrs) | set(final_attrs)
    if not watched:
        return
    for module in modules:
        init_attrs_cache: dict[ast.ClassDef, set[str]] = {}
        for node, cls in _walk_with_class(module.tree):
            if not (isinstance(node, ast.Attribute) and node.attr in watched):
                continue
            attr = node.attr
            receiver_is_self = (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
            owns = False
            if cls is not None and receiver_is_self:
                if cls not in init_attrs_cache:
                    init_attrs_cache[cls] = init_assigned_attrs(cls)
                owns = attr in init_attrs_cache[cls]
            declared = caller_attrs.get(attr, set()) | final_attrs.get(
                attr, set()
            )
            if owns and cls is not None and cls.name not in declared:
                # A different class initializing an attribute of the same
                # name owns its own, unrelated copy — out of scope.
                continue
            if attr in caller_attrs and not owns:
                owners = "/".join(sorted(caller_attrs[attr]))
                violations.append(
                    module.violation(
                        "RL001",
                        node,
                        f"{attr} is externally synchronized (<caller>); "
                        f"only methods of its owner ({owners}) may touch it",
                    )
                )
            elif (
                attr in final_attrs
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and not (owns and _inside_init(node, cls))
            ):
                owners = "/".join(sorted(final_attrs[attr]))
                violations.append(
                    module.violation(
                        "RL001",
                        node,
                        f"{owners}.{attr} is <final>; assign it only in "
                        "__init__",
                    )
                )


def _inside_init(node: ast.AST, cls: ast.ClassDef | None) -> bool:
    """Whether ``node`` sits inside ``cls.__init__`` (by containment)."""
    if cls is None:
        return False
    for method in iter_methods(cls):
        if method.name != "__init__":
            continue
        for sub in ast.walk(method):
            if sub is node:
                return True
    return False


@register_rule(
    "RL001",
    "lock-discipline",
    "Attributes registered in a module-level _GUARDED_BY map may only be "
    "accessed under their declared lock (or, for <caller>/<final> guards, "
    "by their owning class / in __init__).",
)
def check_guarded_by(modules: list[ModuleInfo]) -> list[Violation]:
    violations: list[Violation] = []
    caller_attrs: dict[str, set[str]] = {}
    final_attrs: dict[str, set[str]] = {}
    per_module_entries: list[tuple[ModuleInfo, list[GuardEntry]]] = []
    for module in modules:
        entries = _parse_guard_maps(module, violations)
        if entries:
            per_module_entries.append((module, entries))
        for entry in entries:
            if entry.guard == CALLER:
                caller_attrs.setdefault(entry.attr, set()).add(entry.cls)
            elif entry.guard == FINAL:
                final_attrs.setdefault(entry.attr, set()).add(entry.cls)
    for module, entries in per_module_entries:
        _check_lock_guards(module, entries, violations)
    _check_external_guards(modules, caller_attrs, final_attrs, violations)
    return violations
