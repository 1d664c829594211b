"""ASCII reporting: terminal tables and bar charts for the CLI and the
examples (EXPERIMENTS.md is rendered by repro.experiments.report_writer)."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "",
                 float_format: str = "{:.3f}") -> str:
    """Render a monospace table with auto-sized columns."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def bar_chart(values: Dict[str, float], title: str = "", width: int = 50,
              unit: str = "") -> str:
    """Horizontal ASCII bar chart (one bar per labelled value)."""
    if not values:
        return title
    label_width = max(len(label) for label in values)
    peak = max(values.values()) or 1.0
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(1, int(round(value / peak * width))) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.3f}{unit}")
    return "\n".join(lines)


def grouped_series(series: Dict[str, Dict[str, float]], headers_label: str = "workload",
                   title: str = "", float_format: str = "{:.3f}") -> str:
    """Render {series -> {category -> value}} as a table with one column
    per series (the shape of the paper's grouped bar figures)."""
    series_names = list(series)
    categories: List[str] = []
    for mapping in series.values():
        for category in mapping:
            if category not in categories:
                categories.append(category)
    headers = [headers_label] + series_names
    rows = []
    for category in categories:
        row = [category]
        for name in series_names:
            value = series[name].get(category)
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(headers, rows, title=title, float_format=float_format)
