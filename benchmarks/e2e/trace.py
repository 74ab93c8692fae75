"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own files, around its calls into
each layer of the program — never inside the program.  One span is
``(id, parent, op, name, start, end)``: ``op`` is shared by every span
of one operation, ``parent`` is the id of the span that caused it (0
for a root).  Spans stay in memory until :meth:`Recorder.write` at the
end of the run.

A layer's *self time* is its span minus the part its children cover,
so the rows of :func:`layer_table` sum to the root ``op`` span by
construction; the root's own self time is printed as ``unattributed``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

__all__ = ["Recorder", "layer_table", "format_layer_table", "validate"]


class Recorder:
    """Append-only span store; ids are 1-based list positions."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []

    def add(self, name: str, start: float, end: float, parent: int = 0,
            op: int = 0) -> int:
        span_id = len(self.spans) + 1
        self.spans.append((span_id, parent, op, name, start, end))
        return span_id

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start",
                                  "end"],
                       "spans": self.spans}, fh)


def validate(spans) -> list[str]:
    """Structural problems in a span list (empty when sound): every
    parent resolves, shares the child's op, and encloses the child."""
    by_id = {span[0]: span for span in spans}
    problems = []
    for span_id, parent, op, name, start, end in spans:
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before it starts")
        if parent == 0:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"span {span_id} ({name}): parent {parent} "
                            "does not resolve")
        elif outer[2] != op:
            problems.append(f"span {span_id} ({name}): op differs from "
                            "its parent's")
        elif start < outer[4] or end > outer[5]:
            problems.append(f"span {span_id} ({name}) does not fit inside "
                            f"parent {parent} ({outer[3]})")
    return problems


def layer_table(spans, root: str = "op") -> dict:
    """Per-layer totals over every ``root`` span and its descendants.

    Returns ``{"ops", "op_ms", "rows", "unattributed_ms"}``; each row
    is ``(name, ms_per_op, share_of_op, self_ms_per_op)`` and the
    rows' self times plus ``unattributed_ms`` equal ``op_ms``.
    """
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    by_id = {span[0]: span for span in spans}

    def under_root(span):
        while span[1]:
            span = by_id[span[1]]
        return span[3] == root

    total = defaultdict(float)
    self_time = defaultdict(float)
    n_ops = 0
    op_total = 0.0
    unattributed = 0.0
    for span in spans:
        span_id, parent, _, name, start, end = span
        if not under_root(span):
            continue
        own = (end - start) - child_time[span_id]
        if parent == 0:
            n_ops += 1
            op_total += end - start
            unattributed += own
            continue
        total[name] += end - start
        self_time[name] += own
    if n_ops == 0:
        return {"ops": 0, "op_ms": 0.0, "rows": [], "unattributed_ms": 0.0}
    scale = 1e3 / n_ops
    rows = [(name, total[name] * scale, total[name] / op_total,
             self_time[name] * scale)
            for name in sorted(total, key=total.get, reverse=True)]
    return {"ops": n_ops, "op_ms": op_total * scale, "rows": rows,
            "unattributed_ms": unattributed * scale}


def format_layer_table(table: dict, title: str) -> str:
    lines = [f"layer table — {title}: {table['ops']} ops, "
             f"{table['op_ms']:.4f} ms/op",
             f"  {'layer':<34}{'ms/op':>10}{'share':>9}{'self ms':>10}"]
    for name, ms, share, own in table["rows"]:
        lines.append(f"  {name:<34}{ms:>10.4f}{share:>8.1%} {own:>9.4f}")
    op_ms = table["op_ms"]
    share = table["unattributed_ms"] / op_ms if op_ms else 0.0
    lines.append(f"  {'unattributed':<34}{table['unattributed_ms']:>10.4f}"
                 f"{share:>8.1%} {table['unattributed_ms']:>9.4f}")
    return "\n".join(lines)
