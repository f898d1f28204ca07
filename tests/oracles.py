"""Independent routes that tests hold the package to, kept out of the
package because no package code needs them."""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

from toruscollapse.collapse import FluxProfile, JInterval
from toruscollapse.dynamics import bond_update
from toruscollapse.lattice import TorusConfig
from toruscollapse.measures import (
    ONE,
    ZERO,
    ClosedArc,
    CumulativeFunction,
    PlateauDecomposition,
    TorusMeasure,
    cyc_len,
    frac,
    merge_pair,
    numerators,
    pair_plateaus,
    refined_cells,
)


def tasep_state_frequencies(
    initial: Sequence[int], steps: int, rng
) -> dict[tuple[int, ...], float]:
    """Visit frequencies of the uniformized chain (one uniform bond per
    step, self-loops counted); converges to the stationary law, and is kept
    as the simulation oracle for the exact tables."""
    labels = tuple(initial)
    n = len(labels)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(steps):
        x = rng.randrange(n)
        labels = bond_update(labels, x)
        counts[labels] = counts.get(labels, 0) + 1
    return {s: c / steps for s, c in counts.items()}


def bareiss_stationary(rates: list[list[int]]) -> tuple[list[int], int]:
    """Stationary row vector of an integer rate matrix, exactly, as integer
    weights y over a positive denominator D; the dense reference for the
    sparse solve of dynamics.exact_stationary.

    Solves pi Q = 0 with the normalization row appended, by fraction-free
    (Bareiss) elimination and fraction-free back-substitution: D is the
    last pivot, the system's determinant up to sign, so by Cramer's rule
    every y_i = D * pi_i is an integer.
    """
    n = len(rates)
    # A = Q^T with the last equation replaced by sum(pi) = 1
    A = [[rates[s][t] for s in range(n)] for t in range(n)]
    b = [0] * n
    A[n - 1] = [1] * n
    b[n - 1] = 1
    M = [row[:] + [bi] for row, bi in zip(A, b)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular stationary system; chain not irreducible?")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        for i in range(col + 1, n):
            Mi, Mc = M[i], M[col]
            f1, f2 = Mc[col], Mi[col]
            for j in range(col + 1, n + 1):
                Mi[j] = (Mi[j] * f1 - f2 * Mc[j]) // prev
            Mi[col] = 0
        prev = M[col][col]
    D = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        s = D * M[i][n] - sum(M[i][j] * y[j] for j in range(i + 1, n))
        y[i], rem = divmod(s, M[i][i])
        if rem:
            raise RuntimeError("inexact division in the integer back-substitution")
    if D < 0:
        D, y = -D, [-w for w in y]
    return y, D


def class_label_decode(labels: Sequence[int], k: int) -> tuple[TorusConfig, ...]:
    """Inverse of class_label_encode for a k-class label vector: layer j
    holds the sites labelled 1..j."""
    if any(not 0 <= l <= k for l in labels):
        raise ValueError(f"labels must be in 0..{k}")
    return tuple(TorusConfig([int(1 <= l <= j) for l in labels]) for j in range(1, k + 1))


def interval_mass(rho: TorusMeasure, a, b) -> Fraction:
    """Exact mass of the half-open cyclic interval (a, b]; (a, a] is the
    whole torus.  With P(x) the mass of (0, x], it is P(b) - P(a), plus
    the total mass when b <= a."""
    bps, dens = rho.breakpoints, rho.densities

    def prefix(x: Fraction) -> Fraction:
        i = bisect.bisect_right(bps, x) - 1
        mass = (x - bps[i]) * dens[i]
        mass += sum((hi - lo) * d for lo, hi, d in zip(bps[:i], bps[1 : i + 1], dens))
        return mass + sum((m for at, m in rho.atoms if 0 < at <= x), ZERO)

    a, b = frac(a) % 1, frac(b) % 1
    return prefix(b) - prefix(a) + (rho.total_mass if b <= a else ZERO)


def arc_length(arc: ClosedArc) -> Fraction:
    """Length of the closed arc [lo, hi], rightward from lo."""
    return cyc_len(arc.lo, arc.hi)


def on_arc(arc: ClosedArc, u) -> bool:
    """Whether u lies on the closed arc [lo, hi]."""
    return cyc_len(arc.lo, frac(u) % 1) <= arc_length(arc)


def cumulative(rho: TorusMeasure, arc: ClosedArc) -> CumulativeFunction:
    """Cumulative mass of a density along the arc: a knot at every
    breakpoint of rho inside it and at its end, each valued by
    interval_mass."""
    length = arc_length(arc)
    offsets = sorted({cyc_len(arc.lo, b) for b in rho.breakpoints} | {length})
    knots = [(t, interval_mass(rho, arc.lo, arc.lo + t)) for t in offsets if 0 < t <= length]
    return knotted(arc, [(ZERO, ZERO), *knots])


def knotted(arc: ClosedArc, knots: Sequence[tuple]) -> CumulativeFunction:
    """The cumulative along arc with the given (offset, value) knots, ints,
    'p/q' strings or Fractions, put on ints over their least common
    denominators."""
    len_den, offs = numerators([frac(t) for t, _ in knots])
    mass_den, vals = numerators([frac(v) for _, v in knots])
    return CumulativeFunction(arc, len_den, offs, mass_den, vals)


def left_limit(profile: FluxProfile, v) -> Fraction:
    """Exact J(v-) at any point of the torus, from the affine pieces of the
    profile."""
    pos = profile.positions
    v = frac(v) % 1
    j = bisect.bisect_right(pos, v) - 1
    if pos[j] == v:
        j = (j - 1) % len(pos)
        seg = (ONE if j == len(pos) - 1 else pos[j + 1]) - pos[j]
    else:
        seg = v - pos[j]
    return max(ZERO, profile.values[j] + profile.slopes[j] * seg)


def interval_span(iv: JInterval) -> Fraction:
    """Length of a positive-flux interval; the almost-full one (hi == lo)
    spans the whole torus."""
    L = cyc_len(iv.lo, iv.hi)
    return L if L > 0 else ONE


def in_interval(iv: JInterval, u) -> bool:
    """Whether u lies in the positive-flux interval, [lo, hi) when
    left_closed, else (lo, hi): the reference for membership in {J > 0}."""
    u = frac(u) % 1
    t = cyc_len(iv.lo, u)
    if t == 0:
        return iv.left_closed
    return t < interval_span(iv)


def covers(plateau: PlateauDecomposition, u) -> bool:
    """Whether u lies on the plateau set: in one of its closed arcs, or
    anywhere when it is the full torus."""
    return plateau.full_torus or any(on_arc(arc, u) for arc in plateau.intervals)


def value_at(F: CumulativeFunction, t) -> Fraction:
    """Exact value of F at offset t in [0, L], by linear interpolation."""
    t = frac(t)
    if not 0 <= t <= arc_length(F.base):
        raise ValueError("offset outside the base interval")
    i = bisect.bisect_right([k[0] for k in F.knots], t) - 1
    if i == len(F.knots) - 1:
        return F.knots[-1][1]
    (t0, v0), (t1, v1) = F.knots[i], F.knots[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def preimage_conditions(psi1: TorusMeasure, rho1: TorusMeasure, rho2: TorusMeasure) -> bool:
    """Whether collapsing (psi1, rho2) yields exactly (rho1, rho2).

    Checked structurally: psi1 matches rho1 off the plateaus, probed at
    cell midpoints; on every plateau interval the cumulatives agree at the
    right endpoint and psi1's cumulative dominates rho2's throughout.
    """
    if not all(m.is_absolutely_continuous for m in (psi1, rho1, rho2)):
        raise ValueError("preimage conditions are defined for densities")
    if psi1.total_mass != rho1.total_mass:
        return False
    plateau = pair_plateaus(merge_pair(rho1, rho2))
    if plateau.full_torus:
        return psi1 == rho1
    cuts = [p for arc in plateau.intervals for p in (arc.lo, arc.hi)]
    for _, _, mid in refined_cells([*psi1.breakpoints, *rho1.breakpoints, *cuts]):
        if not covers(plateau, mid) and psi1.density_at(mid) != rho1.density_at(mid):
            return False
    for arc in plateau.intervals:
        F_psi, F_rho2 = cumulative(psi1, arc), cumulative(rho2, arc)
        if F_psi.knots[-1][1] != F_rho2.knots[-1][1]:
            return False
        offs = {t for t, _ in F_psi.knots + F_rho2.knots}
        if any(value_at(F_psi, t) < value_at(F_rho2, t) for t in offs):
            return False
    return True
