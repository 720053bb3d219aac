"""Output checks. Each returns None when the output is right, else a reason.

The Monte Carlo checks read the CSV artifact a run wrote, so they judge what
reached the disk. Their tolerance is the DKW epsilon at ``CHECK_DELTA``: a
correct curve leaves that band with probability at most 1e-6 per check, so
thousands of benchmark runs stay free of false alarms while a curve shifted
by a few percent still fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from singh_audit.singh_engine import SinghBand, dkw_epsilon, eval_curve

CHECK_DELTA = 1e-6
GRID = np.linspace(0.0, 1.0, 1001)
# Documented accuracy of reg_inc_beta for shapes up to 1e4.
BETA_TOLERANCE = 1e-12
BETA_MAX_SHAPE = 1e4


def read_curve_csv(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Alpha column and coverage column(s) of an ``emit_csv`` file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    table = np.array(rows, dtype=np.float64)
    return table[:, 0], [table[:, j] for j in range(1, table.shape[1])]


def against_exact(csv_path, exact, m: int) -> str | None:
    """Monte Carlo curve(s) within the DKW epsilon of the exact enumeration.

    Compared at every alpha the CSV lists, where its coverage is exact. Each
    such alpha is a replicate value rounded to 9 digits; when it lands within
    rounding error of an exact atom, the exact curve is read on the side that
    agrees, because the two engines may compute an atom a few ulps apart.
    """
    alphas, columns = read_curve_csv(csv_path)
    curves = (exact.lower_curve, exact.upper_curve) if isinstance(exact, SinghBand) else (exact,)
    if len(columns) != len(curves):
        return f"expected {len(curves)} coverage column(s), found {len(columns)}"
    probes = [np.clip(alphas * f, 0.0, 1.0) for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
    worst = max(
        float(np.min([np.abs(col - eval_curve(curve, at)) for at in probes], axis=0).max())
        for col, curve in zip(columns, curves)
    )
    eps = dkw_epsilon(m, CHECK_DELTA)
    if worst > eps:
        return f"gap to exact enumeration {worst:.5f} exceeds DKW epsilon {eps:.5f}"
    return None


def uniform(csv_path, m: int) -> str | None:
    """Precise curve within the DKW epsilon of the U(0, 1) diagonal (exact sup)."""
    alphas, columns = read_curve_csv(csv_path)
    if len(columns) != 1:
        return f"expected one coverage column, found {len(columns)}"
    cov = columns[0]
    # At each step the curve jumps from its left value to its right value.
    gap = max(float(np.abs(cov - alphas).max()), float(np.abs(cov[:-1] - alphas[1:]).max()))
    eps = dkw_epsilon(m, CHECK_DELTA)
    if gap > eps:
        return f"sup gap to the diagonal {gap:.5f} exceeds DKW epsilon {eps:.5f}"
    return None


def straddles(exact, lower: bool, upper: bool) -> str | None:
    """Exact c-box validity: lower curve on or above, upper on or below, the diagonal."""
    if lower and (eval_curve(exact.lower_curve, GRID) - GRID).min() < -1e-9:
        return "exact lower curve dips below the diagonal"
    if upper and (eval_curve(exact.upper_curve, GRID) - GRID).max() > 1e-9:
        return "exact upper curve rises above the diagonal"
    return None


def digest_files(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def digest_result(result, report) -> str:
    """Hash of an in-memory Singh result and its classification."""
    h = hashlib.sha256()
    curves = (result.lower_curve, result.upper_curve) if isinstance(result, SinghBand) else (result,)
    for curve in curves:
        h.update(curve.required.tobytes())
        h.update(b"" if curve.weights is None else curve.weights.tobytes())
        h.update(str(curve.never_count).encode())
    h.update(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())
    return h.hexdigest()


def same_digest(first: dict | str, again: dict | str) -> str | None:
    if first != again:
        return "output differs from the first pass of the same seed"
    return None


def beta_spot_points(rng: np.random.Generator, count: int = 240) -> np.ndarray:
    """(x, a, b) rows with shapes up to 1e4 and x spread around the bulk."""
    a = 10.0 ** rng.uniform(-0.3, np.log10(BETA_MAX_SHAPE), count)
    b = 10.0 ** rng.uniform(-0.3, np.log10(BETA_MAX_SHAPE), count)
    mean = a / (a + b)
    sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    x = np.where(rng.random(count) < 0.8, mean + 2.0 * sd * rng.standard_normal(count), rng.random(count))
    return np.column_stack((np.clip(x, 1e-9, 1.0 - 1e-9), a, b))


def reg_inc_beta_vs_scipy(points: np.ndarray, ours: list[float]) -> str | None:
    """Compare against scipy's beta CDF, computed in a child process.

    The child keeps scipy out of this process, so it never counts towards
    the run's peak RSS.
    """
    oracle = Path(__file__).with_name("beta_oracle.py")
    proc = subprocess.run(
        [sys.executable, str(oracle)],
        input=json.dumps(points.tolist()),
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        return f"scipy oracle failed: {proc.stderr.strip().splitlines()[-1:]}"
    reference = np.array(json.loads(proc.stdout), dtype=np.float64)
    err = np.abs(np.asarray(ours) - reference)
    worst = int(err.argmax())
    if err[worst] > BETA_TOLERANCE:
        x, a, b = points[worst]
        return f"reg_inc_beta({x!r}, {a!r}, {b!r}) off scipy by {err[worst]:.3g}"
    return None
