"""Declarative scenario documents.

A scenario is a line-oriented ``key = value`` document (``#`` starts a
comment) describing one Singh analysis: the structure, the target
distribution with its true value (or a parameter grid for a global
analysis), the replicate budget, the seed, and which artifacts to write.
Unknown keys are rejected so typos fail loudly instead of silently running
the wrong experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .global_engine import ParameterGrid, check_grid_args
from .singh_engine import TargetSpec, UnsupportedTargetError, check_run_args
from .special_math import DomainError, SeededStream
from .structures import StructureSpec

__all__ = [
    "Scenario",
    "ScenarioParseError",
    "ScenarioValidationError",
    "parse_scenario",
    "OUTPUT_KINDS",
]

OUTPUT_KINDS = ("csv", "svg", "report")


class ScenarioParseError(ValueError):
    """The document text is malformed (reported with its line number)."""


class ScenarioValidationError(ValueError):
    """The document parsed but violates a scenario invariant."""


@dataclass(frozen=True)
class Scenario:
    """A fully validated analysis description, ready to run.

    Construction checks the run, a global one with ``check_grid_args``
    and a local one with ``check_run_args``, then the seed, delta and
    outputs, and raises ScenarioValidationError. ``dataclasses.replace``
    constructs anew, so an overridden scenario is checked like a parsed one.
    """

    name: str
    structure: StructureSpec
    target: TargetSpec
    grid: ParameterGrid | None
    n: int
    m: int
    seed: int
    delta: float
    outputs: frozenset[str]

    def __post_init__(self) -> None:
        try:
            if self.grid is not None:
                check_grid_args(self.structure, self.target, self.grid, self.n, self.m)
            else:
                check_run_args(self.structure, self.target, self.n, self.m)
        except (DomainError, UnsupportedTargetError) as exc:
            raise ScenarioValidationError(str(exc)) from None
        try:
            SeededStream(self.seed)
        except DomainError:
            raise ScenarioValidationError("seed must be a 64-bit unsigned integer") from None
        if not 0.0 < self.delta < 1.0:
            raise ScenarioValidationError("delta must lie in (0, 1)")
        outputs = frozenset(self.outputs)
        unknown = outputs - set(OUTPUT_KINDS)
        if unknown:
            raise ScenarioValidationError(f"unknown output kind {sorted(unknown)[0]!r}")
        if not outputs:
            raise ScenarioValidationError("outputs must name at least one artifact")
        object.__setattr__(self, "outputs", outputs)

    @property
    def is_global(self) -> bool:
        return self.grid is not None


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(raw)
    return tuple(float(p) for p in parts)


_CONVERTERS = {
    "name": str,
    "structure": str,
    "target": str,
    "c": float,
    "p": float,
    "mu": float,
    "sigma": float,
    "theta0": float,
    "mean": float,
    "delta": float,
    "grid_lo": float,
    "grid_hi": float,
    "weights": _parse_float_list,
    "mus": _parse_float_list,
    "sigmas": _parse_float_list,
    "n": int,
    "m": int,
    "seed": int,
    "grid_k": int,
    "predict": _parse_bool,
    "outputs": lambda raw: frozenset(p.strip() for p in raw.split(",")),
}


def _key(family: str, field: str) -> str:
    """The scenario key of a TargetSpec field: a bernoulli rate is ``theta0``."""
    return "theta0" if (family, field) == ("bernoulli", "p") else field


_TARGET_KEYS = {
    _key(family, x) for family, (fields, _) in TargetSpec.FAMILY_FIELDS.items() for x in fields
}
_GRID_KEYS = ("grid_lo", "grid_hi", "grid_k")


def _collect(text: str) -> dict:
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value'")
        if key not in _CONVERTERS:
            raise ScenarioParseError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            entries[key] = _CONVERTERS[key](value)
        except ValueError:
            raise ScenarioParseError(
                f"line {lineno}: invalid value {value!r} for key {key!r}"
            ) from None
    return entries


def _build_target(entries: dict, family: str, grid):
    # Under a grid the family's truth field takes the first grid value and
    # has no key of its own.
    fields, truth = TargetSpec.FAMILY_FIELDS[family]
    keys = {x: _key(family, x) for x in fields if grid is None or x != truth}
    allowed = set(keys.values())
    present = _TARGET_KEYS & entries.keys()
    missing = allowed - present
    if missing:
        raise ScenarioValidationError(f"{family} target requires {sorted(missing)[0]}")
    extra = present - allowed
    if extra:
        raise ScenarioValidationError(
            f"key {sorted(extra)[0]!r} does not apply to a {family} target here"
        )
    values = {x: entries[key] for x, key in keys.items()}
    if grid is not None and truth is not None:
        values[truth] = grid.thetas[0]
    return TargetSpec(family=family, **values)


def _build_grid(entries: dict):
    given = [k for k in _GRID_KEYS if k in entries]
    if not given:
        return None
    if len(given) != len(_GRID_KEYS):
        missing = next(k for k in _GRID_KEYS if k not in entries)
        raise ScenarioValidationError(f"grid mode requires {missing}")
    return ParameterGrid.uniform(entries["grid_lo"], entries["grid_hi"], entries["grid_k"])


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document."""
    entries = _collect(text)

    for key in ("structure", "target", "n"):
        if key not in entries:
            raise ScenarioValidationError(f"{key} is required")
    family = entries["target"]
    if family not in TargetSpec.FAMILY_FIELDS:
        raise ScenarioValidationError(f"unknown target {family!r}")

    try:
        structure = StructureSpec(entries["structure"], entries.get("c"))
        grid = _build_grid(entries)
        target = _build_target(entries, family, grid)
    except (DomainError, UnsupportedTargetError) as exc:
        raise ScenarioValidationError(str(exc)) from None
    # predict = true restates the band's next-draw truth: required there, refused elsewhere.
    if entries.get("predict", False) != structure.reads_next_draw:
        raise ScenarioValidationError(
            "empirical_predictive requires predict = true" if structure.reads_next_draw
            else "predict = true applies only to empirical_predictive"
        )
    return Scenario(
        name=entries.get("name", "scenario"),
        structure=structure,
        target=target,
        grid=grid,
        n=entries["n"],
        m=entries.get("m", 10_000),
        seed=entries.get("seed", 0),
        delta=entries.get("delta", 0.01),
        outputs=entries.get("outputs", frozenset(OUTPUT_KINDS)),
    )
