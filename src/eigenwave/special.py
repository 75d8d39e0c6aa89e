"""Chi-square distribution functions for integer degrees of freedom.

For k degrees of freedom and y = x/2 the CDF is the finite sum
P(k/2, y) = E - sum_{i < k//2} y^(i+s) e^-y / Gamma(i+s+1), with s = 0 and
E = 1 for even k, s = 1/2 and E = erf(sqrt(y)) for odd k.
"""
from __future__ import annotations

import math


def chi2_cdf(dof: int, x: float) -> float:
    """Chi-square CDF with dof degrees of freedom."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if x < 0.0:
        raise ValueError(f"chi-square argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    y = x / 2.0
    s = 0.5 * (dof % 2)
    head = math.erf(math.sqrt(y)) if s else 1.0
    # each term in log space, so e^-y alone never underflows at large dof
    log_y = math.log(y)
    tail = sum(math.exp((i + s) * log_y - y - math.lgamma(i + s + 1.0))
               for i in range(dof // 2))
    return min(max(head - tail, 0.0), 1.0)


def chi2_quantile(dof: int, prob: float) -> float:
    """Inverse chi-square CDF by bracketed bisection on the CDF."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {prob}")
    lo, hi = 0.0, float(dof)
    while chi2_cdf(dof, hi) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"quantile bracket failed for p={prob}, dof={dof}")
    while hi - lo > 1e-8 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(dof, mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
