"""Artifact emission: CSV curves, JSON reports, and static SVG plots.

Everything here is byte-deterministic: a fixed scenario and seed must
reproduce identical files, so plots are written as hand-assembled SVG 1.1
rather than through a charting library. A CSV lists each distinct alpha
once, printed with 17 significant digits so that it reads back as the value
it stands for, and its coverage with 9, evaluated at that value; re-evaluating
the curve at a listed alpha reproduces the printed coverage exactly.

A CSV body is exactly the text of ``%.17g`` and ``%.9g``. A table of fewer
than ``_KERNEL_ROWS`` rows is printed by one ``%`` format. A larger one is
printed ``_CHUNK_ROWS`` rows at a time by a numpy kernel, ``_cells``, that
forms the digits of each cell in [1e-4, 1) by exact integer arithmetic,
prints 0 and 1 as ``0`` and ``1``, and passes every other cell (below 1e-4,
-0.0, above 1, not finite) to ``%`` one at a time.

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

from .singh_engine import CoverageReport, SinghCurve, _run_starts, eval_curve

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


# Below this many rows a table's one ``%`` format beats the kernel, whose
# fixed cost is about 60 numpy calls a column and chunk. Timed through
# emit_csv on curves and bands of 256 to 768 rows (see CHANGES.md), the two
# cross between 256 and 384 rows; 512 leaves the kernel a 10-25% margin on
# both. A count curve's table, at most n + 3 rows, stays on ``%`` for
# n <= 508.
_KERNEL_ROWS = 512
# Rows the kernel prints at once: fewer pay its fixed cost more often, more
# hold larger temporaries. Of 1024, 2048, 4096 and 8192, 2048 gave the least
# emit_csv time on the continuous_mc benchmark (see CHANGES.md).
_CHUNK_ROWS = 2048

# The kernel lays each row out in little-endian 4-byte words, pads every
# cell with NUL bytes to a fixed width and deletes the NULs at the end.
_WORD = np.dtype("<u4")


def _group_words() -> np.ndarray:
    """Word g is the four digits of g; word 10000 + g the same with trailing zeros as NULs."""
    # uint16 keeps each import-time temporary at 80 kB.
    g = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = (g // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + 48).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    return np.concatenate((digits, np.where(trailing, 0, digits))).view(_WORD).ravel()


_GROUPS = _group_words()
_POINT, _ONE, _ZERO, _COMMA, _NEWLINE = np.frombuffer(
    b"0.\0\0" b"1\0\0\0" b"0\0\0\0" b",\0\0\0" b"\n\0\0\0", dtype=_WORD
)
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)


# The doubles 0.1, 0.01 and 0.001 each lie just above their decimal, so
# x >= 0.01 exactly when x >= 1/100.
_DECADES = (0.1, 0.01, 0.001)
_U64 = np.uint64


def _cells(x: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write ``"%.{p}g" % v`` for each v of ``x`` into the rows of ``out``, NUL-padded.

    ``out`` is an (x.size, 1 + (p + 3) // 4) view of ``_WORD``s: p + 7 bytes
    a row, the longest ``%.{p}g`` of any double. The fast class, v in
    [1e-4, 1), has a decimal exponent E in [-4, -1], counted exactly against
    ``_DECADES``. Its p digits are D = round-half-even(v 10**q) with
    q = p - 1 - E, and v = f 2**e with f < 2**53, so v 10**q is the integer
    f 5**q shifted right by s = -(q + e), 36 to 54 bits here. The product,
    below 2**100, is held in two 64-bit limbs, H and L. A D that carries to
    10**p raises E by one, and a carry to E = 0 prints ``1``. The cell prints
    ``0.``, then -E - 1 zeros and D with its trailing zeros dropped: D's
    four-digit groups are words of ``_GROUPS``, and its top group, ``000d``
    as p + 3 is a multiple of 4, keeps -E - 1 of its three zeros.
    """
    fast = (x >= 1e-4) & (x < 1.0)
    bits = np.where(fast, x, 0.5).view(np.uint64)
    E = (x >= _DECADES[0]).astype(np.int64)
    E += x >= _DECADES[1]
    E += x >= _DECADES[2]
    E -= 4
    E[~fast] = -1
    f = (bits & _U64(2**52 - 1)) | _U64(2**52)
    s = (1076 - p + E - (bits.view(np.int64) >> 52)).view(np.uint64)
    a = _POW5[p - 1 - E]
    f_hi, f_lo = f >> _U64(32), f & _U64(2**32 - 1)
    a_hi, a_lo = a >> _U64(32), a & _U64(2**32 - 1)
    lo = f_lo * a_lo
    mid = f_hi * a_lo
    mid += f_lo * a_hi
    L = lo + (mid << _U64(32))
    H = f_hi * a_hi
    H += mid >> _U64(32)
    H += L < lo
    Q = (H << (_U64(64) - s)) | (L >> s)
    R = L & ((_U64(1) << s) - _U64(1))
    half = _U64(1) << (s - _U64(1))
    D = Q + ((R > half) | ((R == half) & (Q & _U64(1)).astype(bool)))
    carry = D == _U64(10**p)
    D[carry] = _U64(10 ** (p - 1))
    E += carry
    # Groups from the last: a group takes the stripped word (offset 10000)
    # while every group after it is zero. D < 10**17 fits an int64.
    D = D.view(np.int64)
    offset = np.full(x.size, 10_000)
    for j in range(out.shape[1] - 1, 0, -1):
        rest = D // 10_000
        group = D - rest * 10_000
        out[:, j] = _GROUPS.take(group + offset)
        offset *= group == 0
        D = rest
    out[:, 1] &= np.uint32(0xFFFFFFFF) << (8 * (E + 4)).astype(np.uint32)
    one = (x == 1.0) | (E == 0)
    zero = (x == 0.0) & ~np.signbit(x)
    out[:, 0] = _POINT
    out[one, 0] = _ONE
    out[zero, 0] = _ZERO
    out[one | zero, 1:] = 0
    width = 4 * out.shape[1]
    for i in np.flatnonzero(~(fast | one | zero)).tolist():
        out[i] = np.frombuffer((f"%.{p}g" % x[i]).encode("ascii").ljust(width, b"\0"), dtype=_WORD)


def _kernel_rows(columns: list[np.ndarray]) -> list[str]:
    """The CSV rows of ``columns`` (alpha, then each coverage), ``_CHUNK_ROWS`` at a time."""
    precisions = [17] + [9] * (len(columns) - 1)
    # Per row: each cell's words, a comma word before each coverage, a newline word.
    width = sum(1 + (p + 3) // 4 for p in precisions) + len(columns)
    n = columns[0].size
    chunks = []
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        words = np.empty((stop - start, width), dtype=_WORD)
        at = 0
        for column, p in zip(columns, precisions):
            if at:
                words[:, at] = _COMMA
                at += 1
            cell_words = 1 + (p + 3) // 4
            _cells(column[start:stop], p, words[:, at : at + cell_words])
            at += cell_words
        words[:, at] = _NEWLINE
        chunks.append(words.tobytes().translate(None, b"\0").decode("ascii"))
    return chunks


def emit_csv(result, path) -> Path:
    """Write a Singh result as an alpha/coverage table.

    One row per distinct alpha: 0, every distinct finite replicate value,
    then 1; bands list both bound columns at the union of their values.
    Each alpha is printed with 17 significant digits, which read back as the
    same double, and its coverage with 9, evaluated at that value. Ends with
    a ``# never=<count>`` comment so excluded replicates stay visible.

    The body is the text ``%.17g`` and ``%.9g`` print, byte for byte. A
    table of ``_KERNEL_ROWS`` rows or more is printed by the numpy kernel
    ``_cells``: its fast class is every cell in [1e-4, 1), plus 0 and 1,
    and any other cell goes through ``%`` on its own. A smaller table is one
    ``%`` format.
    """
    path = Path(path)
    curves = result.curves
    # Each column's distinct values (a count curve's atoms already are), so
    # a row curve's ties are not copied; a band's two columns are merged by
    # a stable sort.
    distinct = [c.required[_run_starts(c.required)] for c in curves]
    values = distinct[0] if len(distinct) == 1 else np.sort(np.concatenate(distinct), kind="stable")
    header = "alpha,coverage" if len(curves) == 1 else "alpha,coverage_lower,coverage_upper"
    alphas = np.concatenate(([0.0], values[: np.searchsorted(values, np.inf)], [1.0]))
    # Merges equal neighbours, a stored 0 or 1 with its endpoint row among them.
    alphas = alphas[_run_starts(alphas)]
    columns = [alphas, *(eval_curve(c, alphas) for c in curves)]
    if alphas.size < _KERNEL_ROWS:
        row = "%.17g" + ",%.9g" * len(curves) + "\n"
        # Row-major cells: each row's alpha, then its coverage per curve.
        body = [(row * alphas.size) % tuple(np.column_stack(columns).ravel().tolist())]
    else:
        body = _kernel_rows(columns)
    # Written in parts, not as one joined copy: a third live copy of a large
    # body was enough for the C allocator to release its heap top and fault
    # it back in on every band audit (about 450 page faults each).
    return _write(path, f"{header}\n", *body, f"# never={curves[0].never_count}\n")


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
        axes += [
            f'<line x1="{_px(x)}" y1="{_px(_Y0 + _H)}" x2="{_px(x)}" '
            f'y2="{_px(_Y0 + _H + 5)}" stroke="#000000" stroke-width="1"/>',
            f'<text x="{_px(x)}" y="{_px(_Y0 + _H + 19)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>',
            f'<line x1="{_px(_X0 - 5)}" y1="{_px(y)}" x2="{_px(_X0)}" '
            f'y2="{_px(y)}" stroke="#000000" stroke-width="1"/>',
            f'<text x="{_px(_X0 - 9)}" y="{_px(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>',
        ]
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
        body += [
            f'<line x1="{_px(x_text)}" y1="{_px(legend_y - 4)}" '
            f'x2="{_px(x_text + 22)}" y2="{_px(legend_y - 4)}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{_px(x_text + 28)}" y="{_px(legend_y)}" '
            f'font-family="sans-serif" font-size="12">{_escape(label)}</text>',
        ]
        legend_y += 16.0
    return _write(Path(path), _document(title, body))
