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

from .global_engine import ParameterGrid
from .singh_engine import TargetSpec
from .special_math import _MAX_SEED, DomainError
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
    """A fully validated analysis description, ready to run."""

    name: str
    structure: StructureSpec
    target: TargetSpec
    grid: ParameterGrid | None
    n: int
    m: int
    seed: int
    delta: float
    outputs: frozenset[str]

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

# Which target keys each family consumes, locally and under a grid (the grid
# replaces the family's truth parameter).
_FAMILY_KEYS = {
    "normal": {"local": {"mu", "sigma"}, "global": {"sigma"}},
    "bernoulli": {"local": {"theta0"}, "global": set()},
    "scaled_bernoulli": {"local": {"p", "mean"}, "global": {"p"}},
    "gaussian_mixture": {"local": {"weights", "mus", "sigmas"}, "global": None},
}
_TARGET_KEYS = {"p", "mu", "sigma", "theta0", "mean", "weights", "mus", "sigmas"}
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


def _fail(message: str) -> ScenarioValidationError:
    return ScenarioValidationError(message)


def _build_target(entries: dict, family: str, is_global: bool, predictive: bool, grid):
    mode = "global" if is_global else "local"
    allowed = _FAMILY_KEYS[family][mode]
    if allowed is None:
        raise _fail("a gaussian_mixture target has no truth parameter to sweep on a grid")
    present = _TARGET_KEYS & entries.keys()
    missing = allowed - present
    if missing:
        raise _fail(f"{family} target requires {sorted(missing)[0]}")
    extra = present - allowed
    if extra:
        raise _fail(f"key {sorted(extra)[0]!r} does not apply to a {family} target here")
    try:
        if family == "normal":
            mu = grid.thetas[0] if is_global else entries["mu"]
            return TargetSpec.normal(mu, entries["sigma"], predictive=predictive)
        if family == "bernoulli":
            theta0 = grid.thetas[0] if is_global else entries["theta0"]
            return TargetSpec.bernoulli(theta0, predictive=predictive)
        if family == "scaled_bernoulli":
            mean = grid.thetas[0] if is_global else entries["mean"]
            return TargetSpec.scaled_bernoulli(entries["p"], mean, predictive=predictive)
        return TargetSpec.mixture(
            entries["weights"], entries["mus"], entries["sigmas"], predictive=predictive
        )
    except DomainError as exc:
        raise _fail(str(exc)) from None


def _build_grid(entries: dict, family: str):
    given = [k for k in _GRID_KEYS if k in entries]
    if not given:
        return None
    if len(given) != len(_GRID_KEYS):
        missing = next(k for k in _GRID_KEYS if k not in entries)
        raise _fail(f"grid mode requires {missing}")
    lo, hi, k = entries["grid_lo"], entries["grid_hi"], entries["grid_k"]
    if k < 1:
        raise _fail("grid_k must be at least 1")
    if hi < lo:
        raise _fail("grid_lo must not exceed grid_hi")
    if family == "bernoulli" and not (0.0 <= lo and hi <= 1.0):
        raise _fail("a bernoulli grid must lie within [0, 1]")
    if family == "scaled_bernoulli" and lo <= 0.0:
        raise _fail("a scaled_bernoulli grid must be positive")
    return ParameterGrid.uniform(lo, hi, k)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document."""
    entries = _collect(text)

    for key in ("structure", "target"):
        if key not in entries:
            raise _fail(f"{key} is required")
    if "n" not in entries:
        raise _fail("n is required")

    try:
        structure = StructureSpec(entries["structure"], entries.get("c"))
    except DomainError as exc:
        raise _fail(str(exc)) from None

    family = entries["target"]
    if family not in _FAMILY_KEYS:
        raise _fail(f"unknown target {family!r}")

    predictive = bool(entries.get("predict", False))
    if predictive != (structure.kind == "empirical_predictive"):
        if predictive:
            raise _fail("predict = true applies only to empirical_predictive")
        raise _fail("empirical_predictive requires predict = true")

    grid = _build_grid(entries, family)
    if grid is not None and predictive:
        raise _fail("predictive scenarios cannot use a parameter grid")

    target = _build_target(entries, family, grid is not None, predictive, grid)

    n = entries["n"]
    if n < structure.min_n:
        raise _fail(f"{structure.kind} needs n >= {structure.min_n}")
    m = entries.get("m", 10_000)
    if m < 1:
        raise _fail("m must be at least 1")
    seed = entries.get("seed", 0)
    if not 0 <= seed < _MAX_SEED:
        raise _fail("seed must be a 64-bit unsigned integer")
    delta = entries.get("delta", 0.01)
    if not 0.0 < delta < 1.0:
        raise _fail("delta must lie in (0, 1)")
    outputs = entries.get("outputs", frozenset(OUTPUT_KINDS))
    unknown = outputs - set(OUTPUT_KINDS)
    if unknown:
        raise _fail(f"unknown output kind {sorted(unknown)[0]!r}")
    if not outputs:
        raise _fail("outputs must name at least one artifact")
    name = entries.get("name", "scenario")

    return Scenario(
        name=name,
        structure=structure,
        target=target,
        grid=grid,
        n=n,
        m=m,
        seed=seed,
        delta=delta,
        outputs=frozenset(outputs),
    )
