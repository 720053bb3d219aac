"""Measure Monte Carlo drift against the exact enumeration oracle.

For every Bernoulli-family structure, sweep sample sizes and rates, run the
Monte Carlo engine, and report the worst sup-distance between its empirical
coverage curve and the exactly enumerated one. Distances should sit well
inside the DKW budget for the chosen replicate count; a structure whose
worst gap approaches the budget deserves a closer look.
"""

import argparse

import numpy as np

from singh_audit.singh_engine import (
    TargetSpec,
    dkw_epsilon,
    eval_curve,
    exact_singh_curve,
    singh_curve,
)
from singh_audit.special_math import SeededStream
from singh_audit.structures import StructureSpec

STRUCTURES = (
    ("jeffreys", StructureSpec("jeffreys"), "bernoulli"),
    ("clopper_pearson", StructureSpec("clopper_pearson"), "bernoulli"),
    ("scaled_cbox c=0.5", StructureSpec("scaled_cbox", 0.5), "bernoulli"),
    ("scaled_cbox c=3", StructureSpec("scaled_cbox", 3.0), "bernoulli"),
    ("chebyshev_ucl", StructureSpec("chebyshev_ucl"), "scaled_bernoulli"),
)


def sup_gap(exact, sampled, grid) -> float:
    return max(
        float(np.abs(eval_curve(e, grid) - eval_curve(s, grid)).max())
        for e, s in zip(exact.curves, sampled.curves)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=10_000, help="replicates per run")
    parser.add_argument("--seed", type=int, default=0, help="base master seed")
    args = parser.parse_args(argv)

    grid = np.linspace(0.0, 1.0, 1001)
    budget = dkw_epsilon(args.m)
    print(f"m={args.m}  DKW budget={budget:.5f}\n")
    print(f"{'structure':<18} {'worst gap':>10} {'at (n, rate)':>14}")
    run = 0
    for label, structure, family in STRUCTURES:
        worst, where = 0.0, None
        for n in (5, 10, 20, 30):
            for rate in (0.05, 0.2, 0.4, 0.5):
                if family == "bernoulli":
                    target = TargetSpec.bernoulli(rate)
                else:
                    target = TargetSpec.scaled_bernoulli(rate, 2.0)
                exact = exact_singh_curve(structure, target, n)
                sampled = singh_curve(
                    structure, target, n, args.m, SeededStream(args.seed + run)
                )
                run += 1
                gap = sup_gap(exact, sampled, grid)
                if gap > worst:
                    worst, where = gap, (n, rate)
        print(f"{label:<18} {worst:>10.5f} {str(where):>14}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
