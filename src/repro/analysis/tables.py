"""Plain-text table rendering for the benchmark harness.

The benchmarks print the same rows the paper's tables and figures
report; this module keeps the formatting in one place.
"""

from __future__ import annotations

__all__ = ["format_table"]


def format_table(headers, rows, title=None):
    """Monospace table with right-aligned numeric columns."""
    def render(cell):
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rendered)) if rendered
              else len(h) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

