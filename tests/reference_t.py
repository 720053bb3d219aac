"""The Student-t CDF one float at a time, for the tests.

``singh_audit.special_math.student_t_cdf`` runs on every element of its
input at once; this is the same algorithm in Python floats, one value per
call, kept so the tests can hold the array path to a second implementation
bit for bit rather than to itself. It shares the package's scalar pieces
that ``reg_inc_beta`` runs too (the front factor ``_ln_front`` and the
continued fraction ``_beta_cf``) and the sum's coefficients ``_t_ratio``.
"""

import math

from singh_audit.special_math import (
    _T_CENTRE_T2,
    DomainError,
    _beta_cf,
    _check_prob,
    _ln_front,
    _t_ratio,
    _t_sums,
)


def _inc_beta(x: float, a: float, b: float, y: float) -> float:
    # reg_inc_beta's steps for positive shapes, with y = 1 - x formed by the
    # caller (BRATIO's pairing of x and y). x = 0 decides before y is read.
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x == 0.5 and a == b:
        return 0.5
    front = math.exp(_ln_front(x, a, b, y=y))
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * _beta_cf(x, a, b) / a)
    return max(0.0, 1.0 - front * _beta_cf(y, b, a) / b)


def _centre_tail(at: float, t2: float, nu: int) -> float:
    # T(-|t|) by the finite sum, for t^2 <= 9: (1 - A) / 2.
    r2 = nu + t2
    c2 = nu / r2
    p = 0.0
    for j in range(nu // 2, 0, -1):
        p = 1.0 + c2 * _t_ratio(j, nu) * p
    if nu % 2 == 0:
        return 0.5 - 0.5 * (at / math.sqrt(r2) * p)
    root = math.sqrt(nu)
    return 0.5 - (math.atan(at / root) + at * root / r2 * p) / math.pi


def _far_tail(at: float, t2: float, nu: int) -> float:
    # T(-|t|) by the tail series, for t^2 > 9, capped at the centre's tail at
    # |t| = 3. The sum stops at the first term that leaves it unchanged.
    r2 = nu + t2
    c2 = nu / r2
    term = 1.0
    for j in range(1, nu // 2 + 1):
        term = term * (c2 * _t_ratio(j, nu))
    total, j = term, nu // 2
    while True:
        j += 1
        term = term * (c2 * _t_ratio(j, nu))
        new = total + term
        if new == total:
            break
        total = new
    if nu % 2 == 0:
        tail = 0.5 * (at / math.sqrt(r2) * total)
    else:
        tail = at * math.sqrt(nu) / r2 * total / math.pi
    return min(tail, _centre_tail(math.sqrt(_T_CENTRE_T2), _T_CENTRE_T2, nu))


def student_t_cdf(t: float, nu: float) -> float:
    """``special_math.student_t_cdf`` at one float ``t``."""
    if not 0.0 < nu < math.inf:
        raise DomainError("degrees of freedom must be positive and finite")
    if t == 0.0:
        return 0.5
    t2 = t * t
    x = _check_prob(nu / (nu + t2), "x")
    if not _t_sums(nu):
        # t^2 = inf makes y NaN; x is 0 there, which decides before y is read.
        tail = 0.5 * _inc_beta(x, 0.5 * nu, 0.5, t2 / (nu + t2))
    elif x == 0.0:
        tail = 0.0
    elif t2 <= _T_CENTRE_T2:
        tail = _centre_tail(abs(t), t2, int(nu))
    else:
        tail = _far_tail(abs(t), t2, int(nu))
    return tail if t < 0.0 else 1.0 - tail
