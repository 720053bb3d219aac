"""Artifact emission: CSV curves, JSON reports, and static SVG plots.

Everything here is byte-deterministic: a fixed scenario and seed must
reproduce identical files, so plots are written as hand-assembled SVG 1.1
rather than through a charting library. A CSV lists each distinct alpha
once, printed with 17 significant digits so that it reads back as the value
it stands for, and its coverage with 9, evaluated at that value; re-evaluating
the curve at a listed alpha reproduces the printed coverage exactly.

Every artifact goes through one writer, ``_write``, which rewrites a file in
place: it opens without truncating, writes the new bytes over the old ones,
then cuts the file to length. An existing artifact so keeps its inode, its
mode bits and any symlink that points at it, and ends exactly at the new
bytes. Truncating a non-empty file to zero first, as ``open(path, "w")``
does, makes some file systems flush and free its blocks on close, which
cost several times the write itself on every re-run into a full directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .singh_engine import CoverageReport, SinghCurve, eval_curve

__all__ = ["emit_csv", "emit_svg", "emit_svg_overlay", "emit_report"]


_OPEN_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: Path, *parts: str) -> Path:
    """Write ``parts`` in order over the file at ``path``, then cut it to length.

    The file is opened without ``O_TRUNC`` (created with mode 0o666 less the
    umask if absent), so the new bytes overwrite the old ones in place, and
    the ``finally`` truncates at the end of what was written, also when a
    part fails to write.

    What this costs is how an interrupted rewrite looks. A process killed
    before the truncate leaves the new bytes followed by the old file's
    tail, a CSV's old ``# never=`` trailer included. A system crash or
    power loss before the kernel writes the pages back can leave some of
    the file's blocks from the new run and some from the old one. Either
    way the file looks whole but mixes two runs, where a truncate-first
    writer leaves a short or empty file that is plainly broken. The speed
    comes from the same place: ext4 (``auto_da_alloc``) starts writeback
    when a file truncated to zero is closed, and this writer never
    truncates to zero. Neither writer syncs, so neither is durable.
    """
    fd = os.open(path, _OPEN_FLAGS, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as f:
        try:
            for part in parts:
                f.write(part)
        finally:
            f.truncate()
    return path


def _run_starts(values: np.ndarray) -> np.ndarray:
    """A mask, True where each run of equal neighbours begins in a sorted array."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def emit_csv(result, path) -> Path:
    """Write a Singh result as an alpha/coverage table.

    One row per distinct alpha: 0, every distinct finite replicate value,
    then 1; bands list both bound columns at the union of their values.
    Each alpha is printed with 17 significant digits, which read back as the
    same double, and its coverage with 9, evaluated at that value. Ends with
    a ``# never=<count>`` comment so excluded replicates stay visible.
    """
    path = Path(path)
    curves = result.curves
    # Each column's distinct values, so a count curve copies its at most
    # n + 1 atoms rather than its m replicates; a band's two columns are
    # merged by a stable sort.
    distinct = [c.required[_run_starts(c.required)] for c in curves]
    values = distinct[0] if len(distinct) == 1 else np.sort(np.concatenate(distinct), kind="stable")
    header = "alpha,coverage" if len(curves) == 1 else "alpha,coverage_lower,coverage_upper"
    alphas = np.concatenate(([0.0], values[: np.searchsorted(values, np.inf)], [1.0]))
    # Merges equal neighbours, a stored 0 or 1 with its endpoint row among them.
    alphas = alphas[_run_starts(alphas)]
    # Row-major cells: each row's alpha, then its coverage per curve.
    cells = np.column_stack([alphas, *(eval_curve(c, alphas) for c in curves)])
    row = "%.17g" + ",%.9g" * len(curves) + "\n"
    body = (row * alphas.size) % tuple(cells.ravel().tolist())
    # Written in parts, not as one joined copy: a third live copy of a large
    # body was enough for the C allocator to release its heap top and fault
    # it back in on every band audit (about 450 page faults each).
    return _write(path, f"{header}\n", body, f"# never={curves[0].never_count}\n")


# CoverageReport holds only scalars, so reading its fields needs no deep copy.
_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(CoverageReport))


def emit_report(report: CoverageReport, path, name: str) -> Path:
    """Write a CoverageReport as a small JSON document."""
    payload = {"name": name, **{k: getattr(report, k) for k in _REPORT_FIELDS}}
    return _write(Path(path), json.dumps(payload, indent=2, sort_keys=True), "\n")


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
    """Staircase path of the curve's empirical CDF over alpha in [0, 1].

    One step per half-pixel column ``floor(2 _tx(v))`` holding a distinct
    value v in (0, 1]: the step of the column's last value, which rises to
    the coverage there. So every vertex lies on the exact staircase, no
    step is drawn more than half a pixel right of its value, and a curve
    takes at most 2 _W + 1 steps however many values it has. ``_tx`` and
    ``_ty`` map all the coordinates at once as numpy arrays, and one ``%``
    format prints them: ``%.2f`` is the routine behind ``_px``.
    """
    req = curve.required
    inner = req[np.searchsorted(req, 0.0, side="right") : np.searchsorted(req, np.inf)]
    distinct = inner[_run_starts(inner)]
    x = _tx(distinct)
    column = np.floor(2.0 * x)
    last = np.empty(x.size, dtype=bool)
    last[-1:] = True
    np.not_equal(column[1:], column[:-1], out=last[:-1])
    values = distinct[last]
    xy = np.empty((values.size, 2))
    xy[:, 0] = x[last]
    xy[:, 1] = _ty(eval_curve(curve, values))
    steps = ("H %.2f V %.2f " * values.size) % tuple(xy.ravel().tolist())
    start = f"M {_px(_tx(0.0))} {_px(_ty(eval_curve(curve, 0.0)))}"
    return f"{start} {steps}H {_px(_tx(1.0))}"


def _curve_paths(result, color: str) -> list[str]:
    """A result's staircases: a band's upper curve solid, its lower curve dashed."""
    return [
        _path(_step_path(curve), color, dash)
        for curve, dash in zip(reversed(result.curves), (_SOLID, _DASHED))
    ]


def _diagonal(dash: str) -> str:
    d = f"M {_px(_tx(0.0))} {_px(_ty(0.0))} L {_px(_tx(1.0))} {_px(_ty(1.0))}"
    return _path(d, "#777777", dash, width=1.2)


def _furniture() -> tuple[str, str]:
    """Every plot's document head, frame and axes, split where its title goes.

    Built once at import: the title is the only part that differs by plot.
    """
    head = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="{_px(_X0)}" y="{_px(_Y0)}" width="{_px(_W)}" height="{_px(_H)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
        f'<text x="{_px(_X0 + _W / 2)}" y="28" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">',
    ])
    axes = [
        f'<text x="{_px(_X0 + _W / 2)}" y="{_px(_Y0 + _H + 36)}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">alpha</text>',
        f'<text x="18" y="{_px(_Y0 + _H / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_px(_Y0 + _H / 2)})">coverage</text>',
    ]
    for t in _TICKS:
        x, y = _tx(t), _ty(t)
        axes.append(
            f'<line x1="{_px(x)}" y1="{_px(_Y0 + _H)}" x2="{_px(x)}" '
            f'y2="{_px(_Y0 + _H + 5)}" stroke="#000000" stroke-width="1"/>'
        )
        axes.append(
            f'<text x="{_px(x)}" y="{_px(_Y0 + _H + 19)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
        axes.append(
            f'<line x1="{_px(_X0 - 5)}" y1="{_px(y)}" x2="{_px(_X0)}" '
            f'y2="{_px(y)}" stroke="#000000" stroke-width="1"/>'
        )
        axes.append(
            f'<text x="{_px(_X0 - 9)}" y="{_px(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    return head, "</text>\n" + "\n".join(axes) + "\n"


_HEAD, _AXES = _furniture()


def _escape(text: str) -> str:
    """``text`` as XML character data; ``xml.sax.saxutils`` would import urllib."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _document(title: str, body: list[str]) -> str:
    return _HEAD + _escape(title) + _AXES + "\n".join(body) + "\n</svg>\n"


def emit_svg(result, report: CoverageReport, path, name: str) -> Path:
    """Plot one Singh result against the diagonal.

    A single curve is drawn solid with a dashed diagonal; a band draws its
    upper bound solid, its lower bound dashed, and the diagonal dotted. The
    title carries the scenario name and its classification.
    """
    body = [_diagonal(_DASHED if len(result.curves) == 1 else _DOTTED)]
    body += _curve_paths(result, "#000000")
    return _write(Path(path), _document(f"{name}: {report.classification}", body))


def emit_svg_overlay(items, path, title: str) -> Path:
    """Plot several labelled Singh results in one frame with a legend.

    ``items`` is a sequence of (label, result) pairs; colors cycle through a
    fixed palette, bands use solid/dashed pairs of one color, and the
    diagonal is dotted.
    """
    body = [_diagonal(_DOTTED)]
    legend_y = _Y0 + 16.0
    for idx, (label, result) in enumerate(items):
        color = _OVERLAY_COLORS[idx % len(_OVERLAY_COLORS)]
        body += _curve_paths(result, color)
        x_text = _X0 + 12.0
        body.append(
            f'<line x1="{_px(x_text)}" y1="{_px(legend_y - 4)}" '
            f'x2="{_px(x_text + 22)}" y2="{_px(legend_y - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_px(x_text + 28)}" y="{_px(legend_y)}" '
            f'font-family="sans-serif" font-size="12">{_escape(label)}</text>'
        )
        legend_y += 16.0
    return _write(Path(path), _document(title, body))
