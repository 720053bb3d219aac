"""Special functions and seeded sampling.

The regularized incomplete beta function and the Student-t CDF are computed
with the standard continued-fraction expansion so results are identical on
every platform and carry no heavyweight dependency. Randomness comes from
``SeededStream``, a splittable handle that derives statistically independent
substreams from a single master seed by index arithmetic. The samplers draw
from a ``numpy.random.Generator`` that such a stream hands out. Monte Carlo
runs (stream layout v2) give each fixed-size block of replicates one
substream, and the replicates of a block consume its generator in order;
block boundaries depend only on the replicate count, which makes results
independent of worker count and execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "SeededStream",
    "reg_inc_beta",
    "student_t_cdf",
    "sample_normal",
    "sample_bernoulli",
    "sample_scaled_bernoulli",
    "sample_mixture",
    "check_mixture",
]

_MAX_SEED = 2**64


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random source identified by (master_seed, stream_index).

    Equal fields replay the exact same draws. Distinct stream indices give
    independent streams, so splitting work is just index arithmetic: block
    ``b`` of a Monte Carlo run rooted at index ``r`` uses index ``r + b``,
    one generator for all the replicates of the block. Callers that split
    are responsible for handing out disjoint index ranges.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < _MAX_SEED:
            raise DomainError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise DomainError("stream_index must be non-negative")

    def substream(self, offset: int) -> "SeededStream":
        """The stream ``offset`` places after this one."""
        return SeededStream(self.master_seed, self.stream_index + offset)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


def _check_prob(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


_STIRLING_MIN = 20.0


def _prod_err(p: float, q: float, r: float) -> float:
    # Rounding error of r = fl(p * q), via Veltkamp splitting.
    c = 134217729.0 * p
    ph = c - (c - p)
    pl = p - ph
    c = 134217729.0 * q
    qh = c - (c - q)
    ql = q - qh
    return ((ph * qh - r) + ph * ql + pl * qh) + pl * ql


def _scaled_dev(x: float, x_err: float, t: float, t_err: float, s: float) -> float:
    """(x * (t + t_err) - s) / s with the cancellation carried exactly.

    In the delicate region x*t is within a factor two of s, so the computed
    product, its two-product residual, and the tail corrections recover the
    small difference to full precision; elsewhere plain rounding is ample.
    """
    r = x * t
    num = (r - s) + _prod_err(x, t, r) + x * t_err + x_err * t
    return num / s


def _stirling_corr(z: float) -> float:
    # Error term of Stirling's approximation: ln G(z) - [(z - 1/2) ln z - z
    # + ln(2 pi)/2]. Five series terms reach full precision for z >= 20.
    r = 1.0 / (z * z)
    return (
        1.0 / (12.0 * z)
        - r / z * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))
    )


def _ln_front(x: float, a: float, b: float) -> float:
    """log of x^a (1-x)^b / B(a, b) without large-argument cancellation.

    A plain three-lgamma evaluation loses ~1e-11 absolutely once the shapes
    reach 1e4, because each lgamma is only correct to a few ulp of its own
    (huge) magnitude. Rearranging against Stirling's formula cancels the
    large terms analytically and keeps every computed term modest near the
    region where the function is not saturated at 0 or 1.
    """
    xc = 1.0 - x
    xc_err = (1.0 - xc) - x
    if a <= b:
        small, large = a, b
        x_small, x_large = x, xc
        xs_err, xl_err = 0.0, xc_err
    else:
        small, large = b, a
        x_small, x_large = xc, x
        xs_err, xl_err = xc_err, 0.0
    total = small + large
    total_err = small - (total - large)
    if small >= _STIRLING_MIN:
        # Both shapes large: group each exponent with its Stirling mass. The
        # deviations x*(a+b) - a are tiny differences of ~1e4-sized products,
        # so they are formed with compensated arithmetic.
        d_small = _scaled_dev(x_small, xs_err, total, total_err, small)
        d_large = _scaled_dev(x_large, xl_err, total, total_err, large)
        if d_small <= -1.0 or d_large <= -1.0:
            return -math.inf
        return (
            small * math.log1p(d_small)
            + large * math.log1p(d_large)
            + 0.5 * math.log(small * large / (total * 2.0 * math.pi))
            - _stirling_corr(small)
            - _stirling_corr(large)
            + _stirling_corr(total)
        )
    if large >= _STIRLING_MIN:
        # One small shape: expand ln G(total) - ln G(large) around large,
        # with first-order residual corrections for the rounded complement.
        return (
            small * math.log(x_small * total)
            + small * (xs_err / x_small + total_err / total)
            + large * math.log(x_large)
            + large * (xl_err / x_large)
            - math.lgamma(small)
            + (large - 0.5) * math.log1p(small / large)
            - small
            + _stirling_corr(total)
            - _stirling_corr(large)
        )
    return (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )


# Shapes up to 1e4 converge within about 115 iterations; Beta(1e6, 2e6)
# near its mean would need 542, so it is refused rather than truncated.
_CF_MAX_ITERATIONS = 400


def _beta_cf(x: float, a: float, b: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b),
    # valid (fast-converging) for x < (a + 1) / (a + b + 2). Raises
    # DomainError instead of returning an unconverged value.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERATIONS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise DomainError(
        f"incomplete beta continued fraction did not converge at x={x!r}, a={a!r}, b={b!r}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), the Beta(a, b) CDF.

    Degenerate shapes follow the point-mass conventions: a = 0 is a point
    mass at 0 (the CDF is 1 for every x >= 0) and b = 0 is a point mass at 1
    (0 below 1, then 1). Absolute error is below 1e-12 for a, b <= 1e4;
    where the continued fraction does not converge (shapes near 1e6 and
    beyond) it raises DomainError.
    """
    x = _check_prob(x, "x")
    if a < 0.0 or b < 0.0:
        raise DomainError("shape parameters must be non-negative")
    if a == 0.0 and b == 0.0:
        raise DomainError("shape parameters must not both be zero")
    if a == 0.0:
        return 1.0
    if b == 0.0:
        return 1.0 if x == 1.0 else 0.0
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x == 0.5 and a == b:
        # Beta(a, a) is symmetric about 1/2; return the exact median so
        # weak-inequality ties at 0.5 resolve consistently.
        return 0.5
    front = math.exp(_ln_front(x, a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * _beta_cf(x, a, b) / a)
    return max(0.0, 1.0 - front * _beta_cf(1.0 - x, b, a) / b)


def student_t_cdf(t: float, nu: float) -> float:
    """CDF of the Student-t distribution with ``nu`` degrees of freedom."""
    if nu <= 0.0:
        raise DomainError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    # One-tail mass via I_x(nu/2, 1/2) at x = nu / (nu + t^2); the two tails
    # share one evaluation, so the symmetry T(t) + T(-t) = 1 is exact.
    x = nu / (nu + t * t)
    tail = 0.5 * reg_inc_beta(x, 0.5 * nu, 0.5)
    return tail if t < 0.0 else 1.0 - tail


def sample_normal(rng: np.random.Generator, mu: float, sigma: float, n: int) -> np.ndarray:
    """``n`` independent N(mu, sigma) draws from ``rng``."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if n < 1:
        raise DomainError("n must be at least 1")
    # Location-scale on standard normals keeps (mu=4, sigma=3) an exact
    # affine image of (mu=0, sigma=1) under the same generator state.
    return mu + sigma * rng.standard_normal(n)


def sample_bernoulli(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """``n`` independent indicator draws with success probability ``p``."""
    p = _check_prob(p, "p")
    if n < 1:
        raise DomainError("n must be at least 1")
    return (rng.random(n) < p).astype(np.float64)


def sample_scaled_bernoulli(
    rng: np.random.Generator, p: float, target_mean: float, n: int
) -> np.ndarray:
    """Two-point draws on {0, target_mean/p} with population mean target_mean.

    The success probability ``p`` controls skewness, (1 - 2p) / sqrt(p(1-p)),
    while the mean stays fixed; small ``p`` gives rare large values.
    """
    if p <= 0.0:
        raise DomainError("p must be positive")
    p = _check_prob(p, "p")
    if target_mean <= 0.0:
        raise DomainError("target_mean must be positive")
    if n < 1:
        raise DomainError("n must be at least 1")
    return (target_mean / p) * (rng.random(n) < p)


def check_mixture(weights, mus, sigmas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian mixture parameters as float arrays, or DomainError if invalid.

    The three lists must have one equal, non-zero length; the weights must be
    non-negative and sum to 1, and every sigma must be positive.
    """
    weights = np.asarray(weights, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if not weights.shape == mus.shape == sigmas.shape or weights.ndim != 1:
        raise DomainError("weights, mus and sigmas must be equal-length lists")
    if weights.size == 0:
        raise DomainError("mixture needs at least one component")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise DomainError("mixture weights must sum to 1")
    if (weights < 0.0).any():
        raise DomainError("mixture weights must be non-negative")
    if (sigmas <= 0.0).any():
        raise DomainError("sigmas must be positive")
    return weights, mus, sigmas


def _component_cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative mixture weights, normalised to end at exactly 1."""
    cdf = weights.cumsum()
    return cdf / cdf[-1]


def _draw_mixture(
    rng: np.random.Generator,
    cdf: np.ndarray,
    mus: np.ndarray,
    sigmas: np.ndarray,
    n: int,
) -> np.ndarray:
    """``n`` mixture draws from checked parameters, with no checks of its own.

    ``cdf`` comes from ``_component_cdf``. Components are picked by the same
    inverse-CDF lookup as ``rng.choice(size, p=weights)``, so the draws
    equal that call's, without its per-call validation of the weights.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if cdf.size == 1:
        # Single component consumes the generator exactly like sample_normal.
        return mus[0] + sigmas[0] * rng.standard_normal(n)
    component = cdf.searchsorted(rng.random(n), side="right")
    z = rng.standard_normal(n)
    return mus[component] + sigmas[component] * z


def sample_mixture(
    rng: np.random.Generator,
    weights: "list[float] | np.ndarray",
    mus: "list[float] | np.ndarray",
    sigmas: "list[float] | np.ndarray",
    n: int,
) -> np.ndarray:
    """``n`` independent draws from a finite Gaussian mixture."""
    weights, mus, sigmas = check_mixture(weights, mus, sigmas)
    return _draw_mixture(rng, _component_cdf(weights), mus, sigmas, n)
