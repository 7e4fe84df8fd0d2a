"""Deterministic SVG line charts of trajectory CSVs.

One chart per recorded metric, series grouped by (trial, arm) with a bold
per-arm mean line. The SVG is assembled by hand with fixed numeric
formatting so identical inputs give identical bytes; plotting libraries
embed timestamps and layout metadata that break that guarantee.
"""

from __future__ import annotations

import csv
from pathlib import Path

__all__ = ["PlotError", "METRIC_COLUMNS", "read_trajectories", "render_chart", "plot_all"]

METRIC_COLUMNS = (
    "e_total",
    "e_attract",
    "e_repel",
    "in_mask_fraction_full",
    "in_mask_fraction_half",
    "grad_norm",
)

ARM_COLORS = {"csc": "#c44e52", "baseline": "#4c72b0"}

W, H = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 32, 44


class PlotError(ValueError):
    """Malformed trajectory CSV."""


def escape(text: str) -> str:
    """Escape &, > and < for SVG text, in the order xml.sax.saxutils does.

    Importing saxutils would load urllib.request, http.client and ssl
    into every verb of the CLI.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def read_trajectories(path) -> list[dict]:
    """Parse a `run` trajectory CSV into row dicts with numeric fields converted.

    The trial, arm and step columns are required, and every arm is csc or
    baseline. Numeric parse failures and unknown arms name the CSV line; a
    file with a header but no rows is rejected with "no data rows".
    """
    path = Path(path)
    if not path.exists():
        raise PlotError(f"csv file not found: {path}")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise PlotError(f"{path}: no data rows")
        missing = {"trial", "arm", "step"} - set(reader.fieldnames)
        if missing:
            raise PlotError(f"{path}: missing column(s) {sorted(missing)}")
        rows = []
        for raw in reader:
            if None in raw or any(v is None for v in raw.values()):
                raise PlotError(f"{path}: line {reader.line_num}: wrong field count")
            if raw["arm"] not in ARM_COLORS:
                raise PlotError(f"{path}: line {reader.line_num}: unknown arm {raw['arm']!r}")
            row: dict = {"trial": raw["trial"], "arm": raw["arm"]}
            try:
                row["step"] = int(raw["step"])
                for metric in METRIC_COLUMNS:
                    cell = raw.get(metric, "")
                    row[metric] = float(cell) if cell != "" else None
            except ValueError as e:
                raise PlotError(f"{path}: line {reader.line_num}: {e}") from e
            rows.append(row)
    if not rows:
        raise PlotError(f"{path}: no data rows")
    return rows


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _series(rows: list[dict], metric: str) -> dict[tuple[str, str], list[tuple[int, float]]]:
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for row in rows:
        y = row[metric]
        if y is None:
            continue
        series.setdefault((row["trial"], row["arm"]), []).append((row["step"], y))
    for pts in series.values():
        pts.sort(key=lambda p: p[0])
    return series


def _arm_means(series) -> dict[str, list[tuple[int, float]]]:
    by_arm: dict[str, dict[int, list[float]]] = {}
    for (_, arm), pts in series.items():
        bucket = by_arm.setdefault(arm, {})
        for s, y in pts:
            bucket.setdefault(s, []).append(y)
    return {
        arm: [(s, sum(ys) / len(ys)) for s, ys in sorted(buckets.items())]
        for arm, buckets in sorted(by_arm.items())
    }


def render_chart(rows: list[dict], metric: str, title: str) -> str:
    """Render one metric as a standalone SVG document string."""
    series = _series(rows, metric)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{escape(title)}</text>',
    ]
    px0, px1 = MARGIN_L, W - MARGIN_R
    py0, py1 = H - MARGIN_B, MARGIN_T  # y axis points up
    parts.append(
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        f'fill="none" stroke="#888888"/>'
    )
    if not series:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.1f}" y="{(py0 + py1) / 2:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'fill="#888888">(no data)</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    xs = [s for pts in series.values() for s, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_min == x_max:
        x_min, x_max = x_min - 1, x_max + 1
    if y_min == y_max:
        pad = abs(y_min) * 0.1 or 1.0
        y_min, y_max = y_min - pad, y_max + pad

    def sx(x: float) -> float:
        return px0 + (x - x_min) / (x_max - x_min) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 - (y - y_min) / (y_max - y_min) * (py0 - py1)

    for frac in (0.0, 0.5, 1.0):
        yv = y_min + frac * (y_max - y_min)
        parts.append(
            f'<line x1="{px0}" y1="{_fmt(sy(yv))}" x2="{px1}" y2="{_fmt(sy(yv))}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px0 - 6}" y="{_fmt(sy(yv) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{escape(_tick_label(yv))}</text>'
        )
        xv = x_min + frac * (x_max - x_min)
        parts.append(
            f'<text x="{_fmt(sx(xv))}" y="{py0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{escape(_tick_label(xv))}</text>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="{H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">step</text>'
    )

    arms = sorted({arm for _, arm in series})
    many = len(series) > len(arms)
    for (trial, arm) in sorted(series):
        pts = series[(trial, arm)]
        coords = " ".join(f"{_fmt(sx(s))},{_fmt(sy(y))}" for s, y in pts)
        opacity = "0.35" if many else "1.0"
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{ARM_COLORS[arm]}" stroke-width="1" '
            f'opacity="{opacity}"/>'
        )
    if many:
        for arm, pts in _arm_means(series).items():
            coords = " ".join(f"{_fmt(sx(s))},{_fmt(sy(y))}" for s, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{ARM_COLORS[arm]}" stroke-width="2.5"/>'
            )
    for i, arm in enumerate(arms):
        lx = px0 + 10
        ly = py1 + 16 + 16 * i
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{ARM_COLORS[arm]}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(arm)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_all(csv_path, outdir) -> list[Path]:
    """Write one SVG per metric; returns the written paths in metric order."""
    rows = read_trajectories(csv_path)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = Path(csv_path).name
    written = []
    for metric in METRIC_COLUMNS:
        svg = render_chart(rows, metric, f"{metric} vs step ({name})")
        path = outdir / f"{metric}.svg"
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written
