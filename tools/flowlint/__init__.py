"""flowlint — repo-aware static analysis for the Flowtune reproduction.

The codebase's hardest-won properties are enforced at runtime by the
tier-1 suite; flowlint enforces the *structural* side of the same
contracts at lint time, before any test runs:

``FL-DET``
    Determinism of the kernel hot path: no order-unstable reductions
    (``np.add.reduceat``), no float accumulation driven by set
    iteration, no ``bincount`` scatters bypassing the kernel module.
``FL-LIFE``
    Resource lifecycle: classes that construct sockets, shared memory,
    threads, or child processes must carry the repo's close/context-
    manager contract; function-local acquisitions must be released.
``FL-WIRE``
    Wire safety: ``struct`` format strings must agree in arity with
    their pack arguments and unpack targets, every packed format must
    have a decode counterpart in the wire scan group, declared size
    constants must match ``calcsize``, and ``pickle`` never appears
    under ``repro/service/``.
``FL-LOCK``
    Concurrency discipline: state shared between the selectors loop
    and client threads stays under its owning lock; no blocking calls
    while a lock is held or inside a duty-cycle ``run()``.
``FL-API``
    Facade hygiene: everything reachable from ``repro.__init__`` is in
    ``__all__``, resolvable, and fully annotated.

Run it with ``python -m tools.flowlint src tests``.  Suppress a single
line with ``# flowlint: disable=FL-XXXNNN`` (a family prefix such as
``FL-LIFE`` or ``all`` also works); suppress pre-existing findings via
``tools/flowlint/baseline.json`` (each entry carries a justification).
"""

from .engine import (Baseline, Diagnostic, Module, Project,
                     load_project, run_rules)
from .rules import ALL_RULES, RULE_DOCS

__all__ = [
    "ALL_RULES", "Baseline", "Diagnostic", "Module", "Project",
    "RULE_DOCS", "load_project", "run_rules",
]
