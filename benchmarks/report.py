"""Shared benchmark table rendering.

One renderer for the ``$GITHUB_STEP_SUMMARY`` markdown tables the CI
lanes emit (the harness's score table and flowlint's findings), so a
run's numbers are visible in the run page without downloading the
artifact.
"""

from __future__ import annotations

import os

__all__ = ["format_table", "write_step_summary"]


def format_table(headers, rows, markdown=False):
    """Render ``rows`` (sequences of cells) under ``headers``.

    ``markdown=True`` produces a GitHub-flavored pipe table; otherwise
    a monospace-aligned text table (first column left-aligned, the
    rest right-aligned, matching the harness's console style).  Cells
    are stringified; ``None`` renders as ``-``.
    """
    rendered = [["-" if cell is None else str(cell) for cell in row]
                for row in rows]
    headers = [str(h) for h in headers]
    if markdown:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join(" --- " for _ in headers) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rendered]
        return "\n".join(lines)
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        out = [cells[0].ljust(widths[0])]
        out += [cells[i].rjust(widths[i]) for i in range(1, len(cells))]
        return " ".join(out).rstrip()
    return "\n".join([line(headers)] + [line(row) for row in rendered])


def write_step_summary(markdown, path=None):
    """Append ``markdown`` to the GitHub Actions step summary.

    ``path`` defaults to ``$GITHUB_STEP_SUMMARY``; outside Actions
    (variable unset) this is a silent no-op so local harness runs
    behave identically.  Returns True when something was written.
    """
    path = path or os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return False
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(markdown)
        if not markdown.endswith("\n"):
            handle.write("\n")
    return True
