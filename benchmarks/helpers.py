"""Shared benchmark utilities: table rendering and result capture.

Every bench regenerates one table/figure of the paper's evaluation and
prints the rows (also persisted under ``benchmarks/results/``); refresh
the paper-vs-measured comparisons by running
``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import os
from typing import Sequence

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_table(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render, print and persist one figure's data table."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = f"\n=== {name} ===\n" + "\n".join(lines) + "\n"
    print(text)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)
    return text


def fmt(value, digits: int = 1) -> str:
    """Format a numeric cell (None -> empty)."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"
