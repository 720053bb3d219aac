"""Built-in scenario presets.

Each preset is one or more scenario documents plus a plot layout: single-run
presets plot their run alone, sweep presets overlay their runs in one figure
(and fig9 splits its six runs into one figure per sample size). Documents
are parsed by the ordinary scenario parser, so presets exercise exactly the
same path as user files.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Preset", "PRESETS"]


@dataclass(frozen=True)
class Preset:
    """Scenario documents plus (plot stem, document indices) groupings."""

    name: str
    documents: tuple[str, ...]
    plots: tuple[tuple[str, tuple[int, ...]], ...]


def _doc(**fields) -> str:
    return "\n".join(f"{key} = {value}" for key, value in fields.items()) + "\n"


def _sweep(name: str, docs: "list[tuple[str, dict]]", groups=None) -> Preset:
    documents = tuple(
        _doc(name=doc_name, outputs="csv,report", **fields) for doc_name, fields in docs
    )
    if groups is None:
        groups = ((name, tuple(range(len(documents)))),)
    return Preset(name=name, documents=documents, plots=groups)


def _single(name: str, **fields) -> Preset:
    return _sweep(name, [(name, fields)])


PRESETS: dict[str, Preset] = {}


def _register(preset: Preset) -> None:
    PRESETS[preset.name] = preset


# Exactly calibrated baseline: the t pivot on a normal mean.
_register(_single(
    "fig1",
    structure="student_t_pivot", target="normal", mu=4, sigma=3,
    n=10, m=10_000, seed=101,
))

# A Bayesian posterior used as a confidence distribution undercovers.
_register(_single(
    "fig2",
    structure="jeffreys", target="bernoulli", theta0=0.5,
    n=10, m=10_000, seed=102,
))

# The exact binomial confidence box straddles the diagonal.
_register(_single(
    "fig3",
    structure="clopper_pearson", target="bernoulli", theta0=0.4,
    n=10, m=10_000, seed=103,
))

# Non-parametric next-draw prediction on a Gaussian mixture.
_register(_single(
    "fig4",
    structure="empirical_predictive", target="gaussian_mixture",
    weights="0.5,0.5", mus="4,5", sigmas="3,1.5", predict="true",
    n=10, m=10_000, seed=104,
))

# Band width shrinks with sample size; one seed shared across the sweep.
_register(_sweep("fig5", [
    (f"fig5_n{n}", dict(
        structure="clopper_pearson", target="bernoulli", theta0=0.4,
        n=n, m=10_000, seed=105,
    ))
    for n in (10, 50, 250)
]))

# Rare-event rates push the band asymmetric.
_register(_sweep("fig6", [
    (f"fig6_theta{label}", dict(
        structure="clopper_pearson", target="bernoulli", theta0=theta0,
        n=20, m=10_000, seed=106,
    ))
    for label, theta0 in (("001", 0.01), ("005", 0.05), ("020", 0.2), ("050", 0.5))
]))

# Imprecision sweep: c < 1 overconfident, c = 1 exact, c > 1 conservative.
_register(_sweep("fig7", [
    (f"fig7_c{label}", dict(
        structure="scaled_cbox", c=c, target="bernoulli", theta0=0.4,
        n=20, m=10_000, seed=107,
    ))
    for label, c in (("05", 0.5), ("1", 1), ("3", 3))
]))

# Worst-case coverage across the whole rate interval.
_register(_single(
    "fig8",
    structure="clopper_pearson", target="bernoulli",
    grid_lo=0, grid_hi=1, grid_k=100,
    n=10, m=1_000, seed=108,
))

# Chebyshev mean bound under two-point data of fixed mean, varying skewness.
_register(_sweep(
    "fig9",
    [
        (f"fig9_n{n}_p{label}", dict(
            structure="chebyshev_ucl", target="scaled_bernoulli",
            p=p, mean=2, n=n, m=10_000, seed=109,
        ))
        for n in (5, 30)
        for label, p in (("005", 0.05), ("020", 0.2), ("050", 0.5))
    ],
    groups=(("fig9_n5", (0, 1, 2)), ("fig9_n30", (3, 4, 5))),
))
