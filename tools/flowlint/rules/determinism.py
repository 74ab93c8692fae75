"""FL-DET — determinism of the kernel hot path.

The bitwise-equality contract (every backend, any machine) rests on
the canonical chunked reduction in ``repro/core/kernels.py``:
accumulation order must depend only on ``n`` and ``BLOCK_ROWS``.
These rules flag the constructs that silently break that:

FL-DET001
    ``np.add.reduceat`` / ``ufunc.at`` reductions — their accumulation
    order is an implementation detail of numpy, not of the chunk grid.
FL-DET002
    Float accumulation driven by *set* iteration — set order varies
    with hash seeding and insertion history, so ``sum`` over a set of
    floats is run-to-run unstable.
FL-DET003
    ``np.bincount`` scatters outside ``repro/core/kernels.py`` — every
    hot-path scatter must go through the kernel module so all callers
    replay the same canonical chunk fold.
"""

from __future__ import annotations

import ast

from ..engine import Diagnostic, Module, Project
from ._util import call_name

RULES = {
    "FL-DET001": "order-unstable ufunc reduction (reduceat / ufunc.at)",
    "FL-DET002": "set iteration feeding float accumulation",
    "FL-DET003": "bincount scatter bypassing the kernel module",
}

_SCOPE = ("repro/core",)
_KERNEL_MODULE = "repro/core/kernels.py"


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


def _accumulates_float(body: list[ast.stmt]) -> ast.stmt | None:
    """First statement in ``body`` that looks like accumulation."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
                return stmt
    return None


def check(project: Project) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for module in project.modules:
        if not module.in_pkg(*_SCOPE):
            continue
        diags.extend(_check_module(module))
    return diags


def _check_module(module: Module) -> list[Diagnostic]:
    diags = []
    in_kernels = module.in_pkg(_KERNEL_MODULE)
    for node in ast.walk(module.tree):
        # FL-DET001 — reduceat / ufunc.at anywhere under core.
        if isinstance(node, ast.Attribute) and node.attr == "reduceat":
            diags.append(Diagnostic(
                "FL-DET001", module.rel, node.lineno,
                "reduceat accumulation order is not the canonical chunk "
                "fold; use the repro.core.kernels scatter kernels"))
        if isinstance(node, ast.Call):
            name = call_name(node) or ""
            if name.endswith("add.at") or name.endswith("subtract.at"):
                diags.append(Diagnostic(
                    "FL-DET001", module.rel, node.lineno,
                    f"in-place ufunc scatter `{name}` has unspecified "
                    "accumulation order; use repro.core.kernels"))
            # FL-DET003 — bincount outside the kernel module.
            if not in_kernels and (name == "bincount"
                                   or name.endswith(".bincount")):
                diags.append(Diagnostic(
                    "FL-DET003", module.rel, node.lineno,
                    "bincount scatter outside repro/core/kernels.py "
                    "bypasses the canonical chunk fold (bitwise "
                    "contract)"))
            # FL-DET002 (sum form) — sum() over a set expression.
            if name == "sum" and node.args and _is_set_expr(node.args[0]):
                diags.append(Diagnostic(
                    "FL-DET002", module.rel, node.lineno,
                    "sum() over a set: iteration order is hash-dependent, "
                    "so float accumulation is run-to-run unstable"))
        # FL-DET002 (loop form) — `for x in {...}` + `+=` in the body.
        if isinstance(node, (ast.For, ast.AsyncFor)) and \
                _is_set_expr(node.iter):
            hit = _accumulates_float(node.body)
            if hit is not None:
                diags.append(Diagnostic(
                    "FL-DET002", module.rel, node.lineno,
                    "accumulation inside set iteration: set order is "
                    "hash-dependent, the fold order is not canonical"))
    # Generator-expression sum over set comprehension target, e.g.
    # sum(f(x) for x in some_set_literal) — catch the common literal case.
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and call_name(node) == "sum" \
                and node.args and isinstance(node.args[0], ast.GeneratorExp):
            for gen in node.args[0].generators:
                if _is_set_expr(gen.iter):
                    diags.append(Diagnostic(
                        "FL-DET002", module.rel, node.lineno,
                        "sum() over a set-driven generator: fold order "
                        "is hash-dependent"))
    return diags
