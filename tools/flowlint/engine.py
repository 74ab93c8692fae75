"""The flowlint rule engine: modules, diagnostics, pragmas, baseline.

Pure stdlib (``ast`` + ``json``): the analyzer must run in the lint CI
lane before any third-party install and inside the tier-1 test suite.

A :class:`Project` is the unit of analysis — rules see every module at
once, because the contracts they check are cross-module (a format
string packed in ``server.py`` is decoded in ``wire.py``; the facade's
``__all__`` names live in submodules).  Scope predicates work on *path
suffixes* (:meth:`Module.in_pkg`), so test fixtures can mirror the
repo layout under a temp directory without replicating ``src/``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Baseline", "Diagnostic", "Module", "Project",
    "load_project", "run_rules",
]

_PRAGMA = re.compile(r"#\s*flowlint:\s*disable=([A-Za-z0-9_\-*,\s]+)")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id anchored to a file and line."""

    rule: str
    path: str       # posix path relative to the project root
    line: int
    message: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Baseline identity.  Line numbers are deliberately excluded
        so unrelated edits above a finding do not invalidate its
        baseline entry."""
        return (self.rule, self.path, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Module:
    """One parsed source file plus its pragma map."""

    path: Path
    rel: str                      # posix, relative to project root
    source: str
    tree: ast.Module
    disabled: dict[int, set[str]] = field(default_factory=dict)

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.rel.split("/"))

    def in_pkg(self, *suffixes: str) -> bool:
        """True when any ``suffix`` ("repro/core/kernels.py") appears as a
        contiguous run of this module's path parts."""
        parts = self.parts
        for suffix in suffixes:
            want = tuple(suffix.split("/"))
            n = len(want)
            for i in range(len(parts) - n + 1):
                if parts[i:i + n] == want:
                    return True
        return False

    def name_is(self, *names: str) -> bool:
        return self.parts[-1] in names

    def is_suppressed(self, diag: Diagnostic) -> bool:
        tokens = self.disabled.get(diag.line)
        if not tokens:
            return False
        return any(t in ("all", "*") or diag.rule == t
                   or diag.rule.startswith(t) for t in tokens)


@dataclass
class Project:
    root: Path
    modules: list[Module]

    def get(self, rel: str) -> Module | None:
        for module in self.modules:
            if module.rel == rel or module.rel.endswith("/" + rel):
                return module
        return None


def _parse_pragmas(source: str) -> dict[int, set[str]]:
    disabled: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match:
            # `disable=FL-X001 -- reason` keeps only the rule tokens:
            # everything from the first whitespace inside a token on is
            # the human explanation the CLI asks for.
            tokens = {t.strip().split()[0] for t in match.group(1).split(",")
                      if t.strip()}
            disabled[lineno] = {t for t in tokens if t}
    return disabled


def load_project(root: Path | str, paths: list[Path | str] | None = None,
                 ) -> Project:
    """Parse every ``*.py`` under ``paths`` (default: ``root``).

    Files that fail to parse are skipped with a synthetic FL-INT001
    diagnostic attached later by :func:`run_rules` — a syntax error is
    the interpreter's job to report, not the linter's to crash on.
    """
    root = Path(root).resolve()
    if paths is None:
        paths = [root]
    seen: set[Path] = set()
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if not entry.is_absolute():
            entry = root / entry
        candidates = ([entry] if entry.is_file()
                      else sorted(entry.rglob("*.py")))
        for file in candidates:
            file = file.resolve()
            if file in seen or "__pycache__" in file.parts:
                continue
            seen.add(file)
            files.append(file)
    modules = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError:
            continue
        try:
            rel = file.relative_to(root).as_posix()
        except ValueError:
            rel = file.as_posix()
        modules.append(Module(path=file, rel=rel, source=source, tree=tree,
                              disabled=_parse_pragmas(source)))
    return Project(root=root, modules=modules)


def run_rules(project: Project, rules=None) -> list[Diagnostic]:
    """Run every rule family; return pragma-filtered, sorted findings."""
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    by_rel = {m.rel: m for m in project.modules}
    diags: list[Diagnostic] = []
    for check in rules:
        for diag in check(project):
            module = by_rel.get(diag.path)
            if module is not None and module.is_suppressed(diag):
                continue
            diags.append(diag)
    return sorted(diags, key=lambda d: (d.path, d.line, d.rule))


class Baseline:
    """Committed suppression file: pre-existing findings ratchet down.

    Entries match on ``(rule, path, message)`` — never on line — and
    every entry must carry a human ``justification``.  Applying the
    baseline partitions findings into *new* (fail the build), and
    reports entries no longer matched as *stale* (so the file only
    ever shrinks; ``--update-baseline`` rewrites it).
    """

    def __init__(self, entries: list[dict] | None = None):
        self.entries = list(entries or [])

    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(data.get("entries", []))

    def save(self, path: Path | str) -> None:
        data = {"version": 1, "entries": self.entries}
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")

    @staticmethod
    def _key(entry: dict) -> tuple[str, str, str]:
        return (entry.get("rule", ""), entry.get("path", ""),
                entry.get("message", ""))

    def apply(self, diags: list[Diagnostic],
              ) -> tuple[list[Diagnostic], list[Diagnostic], list[dict]]:
        """Partition into ``(new, suppressed, stale_entries)``."""
        keys = {self._key(e) for e in self.entries}
        new = [d for d in diags if d.fingerprint not in keys]
        suppressed = [d for d in diags if d.fingerprint in keys]
        live = {d.fingerprint for d in suppressed}
        stale = [e for e in self.entries if self._key(e) not in live]
        return new, suppressed, stale

    @classmethod
    def from_diagnostics(cls, diags: list[Diagnostic],
                         justification: str = "TODO: justify or fix",
                         ) -> "Baseline":
        entries = [{"rule": d.rule, "path": d.path, "message": d.message,
                    "justification": justification} for d in diags]
        return cls(entries)
