"""Small statistical backend for the verification harness."""

from __future__ import annotations

import math
from typing import Sequence


def kolmogorov_q(lam: float) -> float:
    """Asymptotic Kolmogorov tail Q(lambda) = 2 sum (-1)^{j-1} exp(-2 j^2 lam^2)."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    n, m = len(a), len(b)
    if n < 50 or m < 50:
        raise ValueError("need at least 50 samples on each side")
    xs = sorted(float(v) for v in a)
    ys = sorted(float(v) for v in b)
    d = 0.0
    i = j = 0
    while i < n and j < m:
        t = min(xs[i], ys[j])
        while i < n and xs[i] == t:
            i += 1
        while j < m and ys[j] == t:
            j += 1
        d = max(d, abs(i / n - j / m))
    ne = n * m / (n + m)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return d, kolmogorov_q(lam)


def _gammainc_lower_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series or continued
    fraction, good to ~1e-12 for moderate arguments."""
    if x < 0 or a <= 0:
        raise ValueError("bad arguments")
    if x == 0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1:
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # Lentz continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return 1.0 - q


def chi_square_pvalue(stat: float, dof: int) -> float:
    """Upper tail of the chi-square distribution."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    if stat <= 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - _gammainc_lower_reg(dof / 2.0, stat / 2.0)))


def chi_square_uniform(counts: Sequence[int]) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform law; kept for
    the tests that check simulated visit frequencies."""
    k = len(counts)
    n = sum(counts)
    if k < 2 or n == 0:
        raise ValueError("need at least two cells and one observation")
    expected = n / k
    stat = sum((c - expected) ** 2 / expected for c in counts)
    return stat, chi_square_pvalue(stat, k - 1)
