"""Recompute the exact reference values frozen into the test suite.

Every constant here comes from exact enumeration (no sampling), so this
script is the audit trail for the numbers the tests assert against:
worst-case coverage deficits of the Jeffreys posterior, the moment-bound
case-study coverages, and the band areas of the binomial c-box across
sample sizes.
"""

from singh_audit.singh_engine import (
    TargetSpec,
    classify,
    eval_curve,
    exact_singh_curve,
)
from singh_audit.structures import StructureSpec


def main() -> int:
    print("jeffreys, n=10: worst coverage deficit by rate")
    for theta in (0.1, 0.2, 0.3, 0.4, 0.5):
        curve = exact_singh_curve(StructureSpec("jeffreys"), TargetSpec.bernoulli(theta), 10)
        print(f"  theta0={theta}: {classify(curve).max_deficit:.8f}")

    print("\nchebyshev_ucl on scaled Bernoulli, mean 2: coverage at alpha=0.95")
    for p, n in ((0.2, 5), (0.05, 30), (0.5, 30)):
        curve = exact_singh_curve(
            StructureSpec("chebyshev_ucl"), TargetSpec.scaled_bernoulli(p, 2.0), n
        )
        cov = eval_curve(curve, 0.95)
        print(f"  p={p}, n={n}: coverage={cov:.8f} deficit={0.95 - cov:.8f}")

    print("\nclopper_pearson, theta0=0.4: band area by sample size")
    for n in (10, 50, 250):
        band = exact_singh_curve(StructureSpec("clopper_pearson"), TargetSpec.bernoulli(0.4), n)
        print(f"  n={n}: area={classify(band).conservatism_area:.8f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
