"""Cross-fold feature-importance reports and box-plot rendering.

Each fold model contributes one column→gain mapping; columns a fold
never split on count as zero gain for that fold.  The report carries
the raw per-fold values, five-number box statistics per column, and a
cumulative contribution curve over the fold-summed total gains, so
"how many features carry 90% of the gain" can be read directly.  Models
that never split (``rounds: 0``) give an empty report, drawn as an axis.

The SVG renderer is deliberately dependency-free and writes fixed
two-decimal coordinates, making report bytes stable across runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .gbdt import _linear_quantiles, importance
from .serialize import open_output, write_json


# np.percentile's 25, 50 and 75, divided by 100 as it divides them
_QUARTILES = np.array([25.0, 50.0, 75.0]) / 100


@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    min: float
    max: float


@dataclass
class ImportanceReport:
    """Per-fold gains plus their per-column box statistics and the
    cumulative share-of-total-gain curve (descending, ties by name)."""

    kind: str
    per_fold: list  # k dicts: column -> gain
    box: dict  # column -> BoxStats
    cumulative: list  # (column, cumulative fraction), descending totals


def build_importance_report(
    models, kind: str = "average_gain", column_names=None
) -> ImportanceReport:
    """Aggregate fold-model importances into one report.

    ``column_names``, when given, is the shared training column set;
    any model splitting on a column outside it means the models came
    from different matrices and is rejected.  The box statistics use
    the requested ``kind``; the cumulative curve always uses total
    gain, since contribution shares only make sense additively.
    """
    models = list(models)
    if len(models) < 2:
        raise ConfigError(f"importance report needs >= 2 fold models, got {len(models)}")
    per_fold = [importance(model, kind) for model in models]
    per_fold_total = [importance(model, "total_gain") for model in models]

    used = sorted({col for fold in per_fold for col in fold})
    if column_names is not None:
        stray = set(used) - set(column_names)
        if stray:
            raise DataError(
                f"models split on columns outside the shared set: {sorted(stray)}"
            )

    box: dict = {}
    totals: dict = {}
    for col in used:
        values = np.array([fold.get(col, 0.0) for fold in per_fold], dtype=np.float64)
        values.sort()
        q1, med, q3 = _linear_quantiles(values[:, None], _QUARTILES)[:, 0]
        box[col] = BoxStats(float(med), float(q1), float(q3),
                            float(values.min()), float(values.max()))
        totals[col] = float(sum(fold.get(col, 0.0) for fold in per_fold_total))

    grand = sum(totals.values())
    order = sorted(totals, key=lambda c: (-totals[c], c))
    cumulative = []
    running = 0.0
    for col in order:
        running += totals[col] / grand if grand > 0 else 0.0
        cumulative.append((col, running))
    return ImportanceReport(kind, per_fold, box, cumulative)


def save_report(report: ImportanceReport, path) -> None:
    write_json(path, {
        "kind": report.kind,
        "per_fold": report.per_fold,
        "box": {col: asdict(s) for col, s in report.box.items()},
        "cumulative": [[col, frac] for col, frac in report.cumulative],
    })


# ---------------------------------------------------------------------------
# SVG rendering

_ROW_H = 26
_MARGIN_TOP = 46
_MARGIN_BOTTOM = 34
_LABEL_W = 190
_PLOT_W = 430
_PAD_RIGHT = 20


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _f(x: float) -> str:
    return f"{x:.2f}"


def render_box_plot(report: ImportanceReport, top_n: int = 20) -> str:
    """Render the top features by median importance as an SVG box plot.

    One horizontal row per feature: min/max whiskers, a quartile box,
    and a median tick, scaled to the largest whisker shown.  Output is
    a standalone document with identical bytes for identical reports.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")

    chosen = sorted(report.box, key=lambda c: (-report.box[c].median, c))[:top_n]
    scale_max = max((report.box[c].max for c in chosen), default=0.0)
    if scale_max <= 0:
        scale_max = 1.0
    width = _LABEL_W + _PLOT_W + _PAD_RIGHT
    height = _MARGIN_TOP + len(chosen) * _ROW_H + _MARGIN_BOTTOM

    def x_of(v: float) -> float:
        return _LABEL_W + (v / scale_max) * _PLOT_W

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_f(_LABEL_W)}" y="18" font-size="13">'
        f"feature importance ({_esc(report.kind)}) across folds</text>",
    ]

    axis_y = _MARGIN_TOP + len(chosen) * _ROW_H + 8
    parts.append(
        f'<line x1="{_f(_LABEL_W)}" y1="{_f(axis_y)}" '
        f'x2="{_f(_LABEL_W + _PLOT_W)}" y2="{_f(axis_y)}" stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        x = _LABEL_W + frac * _PLOT_W
        parts.append(
            f'<line x1="{_f(x)}" y1="{_f(axis_y)}" x2="{_f(x)}" y2="{_f(axis_y + 4)}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_f(x)}" y="{_f(axis_y + 16)}" text-anchor="middle">'
            f"{frac * scale_max:.4g}</text>"
        )

    for i, col in enumerate(chosen):
        s = report.box[col]
        cy = _MARGIN_TOP + i * _ROW_H + _ROW_H / 2
        parts.append(
            f'<text x="{_f(_LABEL_W - 8)}" y="{_f(cy + 4)}" text-anchor="end">'
            f"{_esc(col)}</text>"
        )
        # whiskers with end caps
        parts.append(
            f'<line x1="{_f(x_of(s.min))}" y1="{_f(cy)}" x2="{_f(x_of(s.q1))}" '
            f'y2="{_f(cy)}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_f(x_of(s.q3))}" y1="{_f(cy)}" x2="{_f(x_of(s.max))}" '
            f'y2="{_f(cy)}" stroke="black"/>'
        )
        for v in (s.min, s.max):
            parts.append(
                f'<line x1="{_f(x_of(v))}" y1="{_f(cy - 5)}" x2="{_f(x_of(v))}" '
                f'y2="{_f(cy + 5)}" stroke="black"/>'
            )
        parts.append(
            f'<rect x="{_f(x_of(s.q1))}" y="{_f(cy - 7)}" '
            f'width="{_f(max(x_of(s.q3) - x_of(s.q1), 0.0))}" height="14" '
            f'fill="lightsteelblue" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_f(x_of(s.median))}" y1="{_f(cy - 7)}" '
            f'x2="{_f(x_of(s.median))}" y2="{_f(cy + 7)}" stroke="black" '
            f'stroke-width="2"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_box_plot(report: ImportanceReport, path, top_n: int = 20) -> None:
    svg = render_box_plot(report, top_n)  # rejects a bad top_n before any directory is made
    with open_output(path) as fh:
        fh.write(svg)
