"""Benchmark workloads: scenario documents generated from a workload seed.

Every workload is a list of scenario documents in the package's own
``key = value`` format, so set-up goes through ``parse_scenario`` exactly
as a user's files would. The Monte Carlo workloads mirror the shipped
presets (fig1..fig9) at their full replicate budgets; the workload seed only
picks each scenario's master seed, so every seed costs the same work. The
exact-oracle workload puts its Bernoulli rates on an evenly spaced grid over
[0.02, 0.98] that the seed shifts, which keeps the per-seed cost steady while
the seed still moves every rate.

``scale`` divides every replicate budget; it exists for the self-test and
is 1 in every measured run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("continuous_mc", "bernoulli_mc", "exact_oracle")

# Sample sizes of the exact oracle; n = 2000 is run only as the defect probe.
EXACT_SIZES = (30, 250, 1000)
EXACT_RATE_STRATA = 8
DEFECT_PROBE_N = 2000


@dataclass(frozen=True)
class Workload:
    """Scenario documents plus whether they run through the exact oracle."""

    name: str
    documents: tuple[str, ...]
    exact: bool


def _doc(**fields) -> str:
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def _mc(name: str, seed: int, m: int, scale: int, **fields) -> str:
    return _doc(name=name, outputs="csv,svg,report", m=max(m // scale, 2), seed=seed, **fields)


def _continuous_mc(rng: random.Random, scale: int) -> list[str]:
    seeds = [rng.getrandbits(63) for _ in range(3)]
    return [
        _mc("fig1", seeds[0], 10_000, scale,
            structure="student_t_pivot", target="normal", mu=4, sigma=3, n=10),
        _mc("fig4", seeds[1], 10_000, scale,
            structure="empirical_predictive", target="gaussian_mixture",
            weights="0.5,0.5", mus="4,5", sigmas="3,1.5", predict="true", n=10),
        _mc("chebyshev_normal_n30", seeds[2], 10_000, scale,
            structure="chebyshev_ucl", target="normal", mu=4, sigma=3, n=30),
    ]


def _bernoulli_mc(rng: random.Random, scale: int) -> list[str]:
    # One seed per preset, shared across a sweep's documents as the presets do.
    seed = {fig: rng.getrandbits(63) for fig in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9")}
    docs = [
        _mc("fig2", seed["fig2"], 10_000, scale,
            structure="jeffreys", target="bernoulli", theta0=0.5, n=10),
        _mc("fig3", seed["fig3"], 10_000, scale,
            structure="clopper_pearson", target="bernoulli", theta0=0.4, n=10),
    ]
    docs += [
        _mc(f"fig5_n{n}", seed["fig5"], 10_000, scale,
            structure="clopper_pearson", target="bernoulli", theta0=0.4, n=n)
        for n in (10, 50, 250)
    ]
    docs += [
        _mc(f"fig6_theta{label}", seed["fig6"], 10_000, scale,
            structure="clopper_pearson", target="bernoulli", theta0=theta0, n=20)
        for label, theta0 in (("001", 0.01), ("005", 0.05), ("020", 0.2), ("050", 0.5))
    ]
    docs += [
        _mc(f"fig7_c{label}", seed["fig7"], 10_000, scale,
            structure="scaled_cbox", c=c, target="bernoulli", theta0=0.4, n=20)
        for label, c in (("05", 0.5), ("1", 1), ("3", 3))
    ]
    docs.append(_mc("fig8", seed["fig8"], 1_000, scale,
                    structure="clopper_pearson", target="bernoulli",
                    grid_lo=0, grid_hi=1, grid_k=100, n=10))
    docs += [
        _mc(f"fig9_n{n}_p{label}", seed["fig9"], 10_000, scale,
            structure="chebyshev_ucl", target="scaled_bernoulli", p=p, mean=2, n=n)
        for n in (5, 30)
        for label, p in (("005", 0.05), ("020", 0.2), ("050", 0.5))
    ]
    return docs


def stratified_rates(rng: random.Random, strata: int = EXACT_RATE_STRATA) -> list[float]:
    """One rate in each of ``strata`` equal slices of [0.02, 0.98], all at the same offset.

    A single uniform offset shifts an evenly spaced grid, so the seed moves
    every rate while the spread of rates, and with it the spread of audit
    costs, stays the same from seed to seed.
    """
    offset = rng.random()
    return [0.02 + 0.96 * (i + offset) / strata for i in range(strata)]


def _exact_docs(n: int, rate: float, p: float) -> list[str]:
    tag = f"n{n}_r{rate:.4f}"
    return [
        _doc(name=f"jeffreys_{tag}", structure="jeffreys", target="bernoulli", theta0=repr(rate), n=n),
        _doc(name=f"clopper_pearson_{tag}", structure="clopper_pearson", target="bernoulli",
             theta0=repr(rate), n=n),
        _doc(name=f"scaled_cbox_c05_{tag}", structure="scaled_cbox", c=0.5, target="bernoulli",
             theta0=repr(rate), n=n),
        _doc(name=f"scaled_cbox_c3_{tag}", structure="scaled_cbox", c=3, target="bernoulli",
             theta0=repr(rate), n=n),
        _doc(name=f"chebyshev_ucl_n{n}_p{p:.4f}", structure="chebyshev_ucl",
             target="scaled_bernoulli", p=repr(p), mean=2, n=n),
    ]


def _exact_oracle(rng: random.Random) -> list[str]:
    rates = stratified_rates(rng)
    ps = stratified_rates(rng)
    return [doc for n in EXACT_SIZES for rate, p in zip(rates, ps) for doc in _exact_docs(n, rate, p)]


def defect_probe_document(seed: int) -> str:
    """The n = 2000 exact audit that overflows ``_binomial_weights`` today."""
    rate = stratified_rates(random.Random(seed), 1)[0]
    return _doc(name=f"clopper_pearson_n{DEFECT_PROBE_N}", structure="clopper_pearson",
                target="bernoulli", theta0=repr(rate), n=DEFECT_PROBE_N)


def build(name: str, seed: int, scale: int = 1) -> Workload:
    """The workload's scenario documents for one workload seed."""
    rng = random.Random(seed)
    if name == "continuous_mc":
        return Workload(name, tuple(_continuous_mc(rng, scale)), exact=False)
    if name == "bernoulli_mc":
        return Workload(name, tuple(_bernoulli_mc(rng, scale)), exact=False)
    if name == "exact_oracle":
        return Workload(name, tuple(_exact_oracle(rng)), exact=True)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
