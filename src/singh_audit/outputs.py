"""Artifact emission: CSV curves, JSON reports, and static SVG plots.

Everything here is byte-deterministic: a fixed scenario and seed must
reproduce identical files, so plots are written as hand-assembled SVG 1.1
rather than through a charting library, and CSV numbers are printed with 9
significant digits. CSV coverage values are evaluated at the printed
(rounded) alpha, which keeps an emitted file exactly consistent with
re-evaluating the curve at the alphas it lists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .singh_engine import CoverageReport, SinghBand, SinghCurve, eval_curve

__all__ = ["emit_csv", "emit_svg", "emit_svg_overlay", "emit_report"]


def _curve_alphas(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct CSV alphas and how many rows each fills.

    The rows list 0, every finite value as printed, then 1. Printing is
    monotone, so equal alphas are neighbours, and coverage is a function of
    alpha, so each distinct alpha is one row repeated. A Bernoulli-family
    curve has at most n + 1 distinct values however many replicates it
    holds, and each is printed once.
    """
    distinct, index = np.unique(values[np.isfinite(values)], return_inverse=True)
    printed = np.array([float(f"{v:.9g}") for v in distinct.tolist()], dtype=np.float64)
    return np.unique(np.concatenate(([0.0], printed[index], [1.0])), return_counts=True)


def emit_csv(result, path) -> Path:
    """Write a Singh result as an alpha/coverage table.

    One row per sorted replicate value plus rows at alpha 0 and 1; bands list
    both bound columns at the union of their replicate values. Ends with a
    ``# never=<count>`` comment so excluded replicates stay visible.
    """
    path = Path(path)
    if isinstance(result, SinghBand):
        alphas, counts = _curve_alphas(
            np.concatenate((result.lower_curve.required, result.upper_curve.required))
        )
        lower = eval_curve(result.lower_curve, alphas).tolist()
        upper = eval_curve(result.upper_curve, alphas).tolist()
        header = "alpha,coverage_lower,coverage_upper"
        rows = [f"{a:.9g},{lo:.9g},{up:.9g}" for a, lo, up in zip(alphas.tolist(), lower, upper)]
        never = result.lower_curve.never_count
    else:
        alphas, counts = _curve_alphas(result.required)
        coverage = eval_curve(result, alphas).tolist()
        header = "alpha,coverage"
        rows = [f"{a:.9g},{c:.9g}" for a, c in zip(alphas.tolist(), coverage)]
        never = result.never_count
    lines = [header, *np.repeat(np.array(rows, dtype=object), counts).tolist(), f"# never={never}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def emit_report(report: CoverageReport, path, name: str) -> Path:
    """Write a CoverageReport as a small JSON document."""
    path = Path(path)
    payload = {
        "name": name,
        "classification": report.classification,
        "max_deficit": report.max_deficit,
        "conservatism_area": report.conservatism_area,
        "dkw_epsilon": report.dkw_epsilon,
        "m": report.m,
        "never_count": report.never_count,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    return path


_SIZE = 520
_X0, _Y0, _W, _H = 64.0, 48.0, 408.0, 408.0
_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)

_SOLID = "none"
_DASHED = "8 5"
_DOTTED = "2 5"

_OVERLAY_COLORS = ("#000000", "#c0392b", "#2471a3", "#1e8449", "#7d3c98", "#b7950b")


def _tx(alpha: float) -> float:
    return _X0 + alpha * _W


def _ty(coverage: float) -> float:
    return _Y0 + _H - coverage * _H


def _px(v: float) -> str:
    return format(v, ".2f")


def _path(d: str, color: str, dash: str, width: float = 1.6) -> str:
    dash_attr = "" if dash == _SOLID else f' stroke-dasharray="{dash}"'
    return (
        f'<path d="{d}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )


def _step_path(curve: SinghCurve) -> str:
    """Staircase path of the curve's empirical CDF over alpha in [0, 1]."""
    values = np.unique(curve.required)
    values = values[(values > 0.0) & np.isfinite(values)]
    start = eval_curve(curve, 0.0)
    parts = [f"M {_px(_tx(0.0))} {_px(_ty(start))}"]
    for v, y in zip(values.tolist(), eval_curve(curve, values).tolist()):
        parts.append(f"H {_px(_tx(v))} V {_px(_ty(y))}")
    parts.append(f"H {_px(_tx(1.0))}")
    return " ".join(parts)


def _diagonal(dash: str) -> str:
    d = f"M {_px(_tx(0.0))} {_px(_ty(0.0))} L {_px(_tx(1.0))} {_px(_ty(1.0))}"
    return _path(d, "#777777", dash, width=1.2)


def _frame_and_axes(title: str) -> list[str]:
    parts = [
        f'<rect x="{_px(_X0)}" y="{_px(_Y0)}" width="{_px(_W)}" height="{_px(_H)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
        f'<text x="{_px(_X0 + _W / 2)}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{_px(_X0 + _W / 2)}" y="{_px(_Y0 + _H + 36)}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">alpha</text>',
        f'<text x="18" y="{_px(_Y0 + _H / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_px(_Y0 + _H / 2)})">coverage</text>',
    ]
    for t in _TICKS:
        x, y = _tx(t), _ty(t)
        parts.append(
            f'<line x1="{_px(x)}" y1="{_px(_Y0 + _H)}" x2="{_px(x)}" '
            f'y2="{_px(_Y0 + _H + 5)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_px(x)}" y="{_px(_Y0 + _H + 19)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
        parts.append(
            f'<line x1="{_px(_X0 - 5)}" y1="{_px(y)}" x2="{_px(_X0)}" '
            f'y2="{_px(y)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_px(_X0 - 9)}" y="{_px(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    return parts


def _document(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def emit_svg(result, report: CoverageReport, path, name: str) -> Path:
    """Plot one Singh result against the diagonal.

    A single curve is drawn solid with a dashed diagonal; a band draws its
    upper bound solid, its lower bound dashed, and the diagonal dotted. The
    title carries the scenario name and its classification.
    """
    path = Path(path)
    body = _frame_and_axes(f"{name}: {report.classification}")
    if isinstance(result, SinghBand):
        body.append(_diagonal(_DOTTED))
        body.append(_path(_step_path(result.upper_curve), "#000000", _SOLID))
        body.append(_path(_step_path(result.lower_curve), "#000000", _DASHED))
    else:
        body.append(_diagonal(_DASHED))
        body.append(_path(_step_path(result), "#000000", _SOLID))
    path.write_text(_document(body), encoding="utf-8", newline="\n")
    return path


def emit_svg_overlay(items, path, title: str) -> Path:
    """Plot several labelled Singh results in one frame with a legend.

    ``items`` is a sequence of (label, result) pairs; colors cycle through a
    fixed palette, bands use solid/dashed pairs of one color, and the
    diagonal is dotted.
    """
    path = Path(path)
    body = _frame_and_axes(title)
    body.append(_diagonal(_DOTTED))
    legend_y = _Y0 + 16.0
    for idx, (label, result) in enumerate(items):
        color = _OVERLAY_COLORS[idx % len(_OVERLAY_COLORS)]
        if isinstance(result, SinghBand):
            body.append(_path(_step_path(result.upper_curve), color, _SOLID))
            body.append(_path(_step_path(result.lower_curve), color, _DASHED))
        else:
            body.append(_path(_step_path(result), color, _SOLID))
        x_text = _X0 + 12.0
        body.append(
            f'<line x1="{_px(x_text)}" y1="{_px(legend_y - 4)}" '
            f'x2="{_px(x_text + 22)}" y2="{_px(legend_y - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_px(x_text + 28)}" y="{_px(legend_y)}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
        legend_y += 16.0
    path.write_text(_document(body), encoding="utf-8", newline="\n")
    return path
