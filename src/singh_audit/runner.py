"""Scenario execution: engines in, artifacts on disk out."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

from .global_engine import global_singh
from .outputs import emit_csv, emit_report, emit_svg, emit_svg_overlay
from .presets import PRESETS
from .scenario import Scenario, parse_scenario
from .singh_engine import CoverageReport, classify, singh_curve
from .special_math import SeededStream

__all__ = ["run_analysis", "run_scenario", "run_preset"]

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(name: str) -> str:
    slug = _SLUG_RE.sub("_", name).strip("_")
    return slug or "scenario"


def run_analysis(scenario: Scenario):
    """Run the scenario's engine and classify the result."""
    stream = SeededStream(scenario.seed)
    if scenario.is_global:
        result = global_singh(
            scenario.structure, scenario.target, scenario.grid, scenario.n, scenario.m, stream
        )
    else:
        result = singh_curve(
            scenario.structure, scenario.target, scenario.n, scenario.m, stream
        )
    return result, classify(result, scenario.delta)


def _effective_outputs(scenario: Scenario, fmt: str | None) -> frozenset[str]:
    if fmt is None:
        return scenario.outputs
    chosen = {"csv": {"csv"}, "svg": {"svg"}, "both": {"csv", "svg"}}[fmt]
    if "report" in scenario.outputs:
        chosen = chosen | {"report"}
    return frozenset(chosen)


def _emit(scenario: Scenario, result, report: CoverageReport, out: Path, outputs) -> list[Path]:
    """Write one run's artifacts named after the scenario, in csv, svg, report order."""
    stem = _slug(scenario.name)
    written: list[Path] = []
    if "csv" in outputs:
        written.append(emit_csv(result, out / f"{stem}.csv"))
    if "svg" in outputs:
        written.append(emit_svg(result, report, out / f"{stem}.svg", scenario.name))
    if "report" in outputs:
        written.append(emit_report(report, out / f"{stem}.json", scenario.name))
    return written


def run_scenario(scenario: Scenario, out_dir, fmt: str | None = None) -> list[Path]:
    """Run one scenario and write its requested artifacts into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result, report = run_analysis(scenario)
    return _emit(scenario, result, report, out, _effective_outputs(scenario, fmt))


def run_preset(name: str, out_dir, replicates: int | None = None) -> list[Path]:
    """Run a named preset: per-run CSV + report, plus its figure plot(s).

    ``replicates`` overrides every run's m, for quick reduced-cost passes;
    the overridden scenarios are validated before anything is written.
    """
    preset = PRESETS[name]
    scenarios = [parse_scenario(doc) for doc in preset.documents]
    if replicates is not None:
        scenarios = [replace(s, m=replicates) for s in scenarios]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ran: list[tuple[Scenario, object, CoverageReport]] = []
    written: list[Path] = []
    for scenario in scenarios:
        result, report = run_analysis(scenario)
        ran.append((scenario, result, report))
        # A preset's plots are its figures, drawn below, not one per run.
        written += _emit(scenario, result, report, out, scenario.outputs - {"svg"})
    for plot_stem, indices in preset.plots:
        path = out / f"{plot_stem}.svg"
        if len(indices) == 1:
            scenario, result, report = ran[indices[0]]
            written.append(emit_svg(result, report, path, scenario.name))
        else:
            items = [(ran[i][0].name, ran[i][1]) for i in indices]
            written.append(emit_svg_overlay(items, path, plot_stem))
    return written
