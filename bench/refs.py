"""Reference routines the benchmark checks the program against.

Nothing here imports the package: every routine works on plain values
(bit lists, sorted Fractions, label tuples, breakpoint/density/atom
sequences), so a defect in the package cannot hide in its own check.
`test_references.py` holds each routine equal to brute force.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# collapse: one pass of a cyclic queue
# ---------------------------------------------------------------------------


def queue_collapse(first: Sequence[bool], second: Sequence[bool]) -> list[bool]:
    """Collapse of the first layer onto the second along a cyclic order.

    A position in the first layer only is an arrival, one in the second
    layer only is a service, one in both keeps its particle.  The queue
    length after position x is the flux J(x); one lap from an empty queue
    ends at J(last), the fixed point, and a second lap started there reads
    off which services are used.  Requires no more first-layer than
    second-layer positions.
    """
    if len(first) != len(second):
        raise ValueError("layers differ in length")
    if sum(map(bool, first)) > sum(map(bool, second)):
        raise ValueError("first layer is larger than the second")
    steps = [bool(a) - bool(b) for a, b in zip(first, second)]
    q = 0
    for d in steps:
        q = max(0, q + d)
    out = []
    for a, b, d in zip(first, second, steps):
        out.append(bool(b) and (bool(a) or q > 0))
        q = max(0, q + d)
    return out


def queue_collapse_ring(eta1: Sequence[int], eta2: Sequence[int]) -> list[int]:
    """Ring collapse on 0/1 occupation vectors."""
    return [int(v) for v in queue_collapse(eta1, eta2)]


def queue_collapse_points(x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
    """Point-set collapse: the ring collapse on the merged sorted order."""
    xs, ys = set(x), set(y)
    merged = sorted(xs | ys)
    keep = queue_collapse([u in xs for u in merged], [u in ys for u in merged])
    return [u for u, k in zip(merged, keep) if k]


# ---------------------------------------------------------------------------
# exact stationarity: balance residual of a label-vector table
# ---------------------------------------------------------------------------


def sorted_bond(labels: tuple[int, ...], x: int, k: int) -> tuple[int, ...]:
    """Sort the labels on bond (x, x+1): lower class left, holes ranked last."""
    n = len(labels)
    y = (x + 1) % n
    a, b = labels[x], labels[y]
    ka = a if a >= 1 else k + 1
    kb = b if b >= 1 else k + 1
    if ka <= kb:
        return labels
    out = list(labels)
    out[x], out[y] = b, a
    return tuple(out)


def balance_residual(table: Mapping[tuple[int, ...], Fraction], k: int) -> dict:
    """(pi Q)(t) for every state t the table touches, where every bond
    rings at rate one and sorts its two labels.  Zero everywhere exactly
    when the table is stationary."""
    res: dict[tuple[int, ...], Fraction] = {}
    for s, p in table.items():
        res.setdefault(s, ZERO)
        for x in range(len(s)):
            t = sorted_bond(s, x, k)
            if t != s:
                res[t] = res.get(t, ZERO) + p
                res[s] -= p
    return res


# ---------------------------------------------------------------------------
# measures: interval mass and domination
# ---------------------------------------------------------------------------


def _ac_to(bps: Sequence[Fraction], dens: Sequence[Fraction], u: Fraction) -> Fraction:
    """Density mass of [0, u] for 0 <= u <= 1; cells are [bps[i], bps[i+1])."""
    total = ZERO
    for i, (lo, d) in enumerate(zip(bps, dens)):
        hi = bps[i + 1] if i + 1 < len(bps) else ONE
        if lo >= u:
            break
        total += (min(hi, u) - lo) * d
    return total


def interval_mass(bps, dens, atoms, a, b) -> Fraction:
    """Mass of the cyclic half-open interval (a, b]; (a, a] is the torus.

    `bps` start at 0 and are sorted, `dens[i]` is the density on
    [bps[i], next), `atoms` are (position, mass) pairs.
    """
    a, b = Fraction(a) % 1, Fraction(b) % 1
    if a == b:
        length = ONE
        ac = _ac_to(bps, dens, ONE)
    else:
        length = (b - a) % 1
        ac = _ac_to(bps, dens, b) - _ac_to(bps, dens, a)
        if a > b:
            ac += _ac_to(bps, dens, ONE)
    mass = ac
    for at, m in atoms:
        off = (at - a) % 1
        if (0 < off <= length) or (off == 0 and a == b):
            mass += m
    return mass


def dominated(small, large) -> bool:
    """Whether measure `small` <= `large` on every set: cellwise density
    domination on the common refinement and atomwise domination.  Each
    measure is a (breakpoints, densities, atoms) triple."""
    (b1, d1, a1), (b2, d2, a2) = small, large
    for lo in sorted(set(b1) | set(b2)):
        if _density_at(b1, d1, lo) > _density_at(b2, d2, lo):
            return False
    big = dict(a2)
    return all(m <= big.get(at, ZERO) for at, m in a1)


def _density_at(bps, dens, u) -> Fraction:
    return dens[bisect.bisect_right(bps, u) - 1]


# ---------------------------------------------------------------------------
# Hammersley-type dynamics: replay of recorded marks
# ---------------------------------------------------------------------------


def replay_marks(layers: Sequence[Sequence[Fraction]], marks: Sequence[Fraction]):
    """Apply marks in order: in every layer the nearest point strictly to
    the cyclic left of the mark moves onto it.  A mark landing on an
    occupied point is an error, since the dynamics redraws those.
    Returns the final layers as sorted lists."""
    state = [sorted(pts) for pts in layers]
    for u in marks:
        for pts in state:
            i = bisect.bisect_left(pts, u)
            if i < len(pts) and pts[i] == u:
                raise ValueError(f"mark {u} lands on an occupied point")
        for pts in state:
            if pts:
                del pts[bisect.bisect_left(pts, u) - 1]  # index -1 wraps
                bisect.insort(pts, u)
    return state
