"""Small statistical backend for the verification harness."""

from __future__ import annotations

import math
from typing import Sequence

# fewest samples on each side the asymptotic KS p-value is taken on
KS_MIN_SAMPLES = 50


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
    if n < KS_MIN_SAMPLES or m < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples on each side")
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
