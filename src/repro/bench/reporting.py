"""Plain-text rendering and persistence of experiment results.

Benchmarks both print their tables (so ``pytest benchmarks/`` output is a
readable lab notebook) and save them under ``results/`` (README.md,
"Tests and benchmarks").
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

from .metrics import ExperimentResult

__all__ = [
    "render",
    "save",
    "report",
    "results_dir",
    "results_path",
    "parse_int_list",
]


def parse_int_list(text: str, *, minimum: int | None = None) -> list[int]:
    """Argparse type for comma-separated integer sweeps.

    Shared by the plain benchmark scripts (batch sizes, shard counts,
    probe limits) so the parsing and its error messages live in one
    place.  ``minimum`` rejects values below a floor; the list itself
    must be non-empty.
    """
    try:
        values = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    if minimum is not None and any(value < minimum for value in values):
        raise argparse.ArgumentTypeError(f"values must be >= {minimum}")
    return values


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render(result: ExperimentResult) -> str:
    """Render a result as an aligned monospace table."""
    lines = [f"== {result.exp_id}: {result.title} =="]
    if result.params:
        params = ", ".join(f"{k}={v}" for k, v in result.params.items())
        lines.append(f"params: {params}")
    table = [result.columns] + [
        [_format_cell(v) for v in row] for row in result.rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(result.columns))]
    header, *body = table
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def results_dir() -> Path:
    """Directory for persisted tables (override with PNW_RESULTS_DIR)."""
    path = Path(os.environ.get("PNW_RESULTS_DIR", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def results_path(name: str, suffix: str = ".txt") -> Path:
    """Canonical path for one persisted artifact under the results dir.

    Every script that writes an output file goes through this helper
    (instead of hand-rolling ``results/<something>.txt``), so the
    ``PNW_RESULTS_DIR`` override, directory creation, and naming scheme
    live in exactly one place.  ``name`` is the artifact's identifier
    (e.g. ``fig6-normal`` or ``bench-shard-scaling``); path separators
    are rejected so artifacts cannot escape the results directory.
    """
    if not name:
        raise ValueError("artifact name must be non-empty")
    if "/" in name or "\\" in name:
        raise ValueError(f"artifact name {name!r} must not contain path separators")
    return results_dir() / f"{name}{suffix}"


def save(result: ExperimentResult) -> Path:
    """Persist the rendered table; returns the file path."""
    path = results_path(result.exp_id)
    path.write_text(render(result) + "\n")
    return path


def report(result: ExperimentResult) -> ExperimentResult:
    """Print and save a result; returns it for chaining/assertions."""
    text = render(result)
    print("\n" + text)
    save(result)
    return result
