"""The collapsing operator: particles, points and positive measures.

A smaller configuration collapses onto a larger one by moving mass to the
right until domination holds.  Equivalently, the result charges every
half-open interval (a, b] with the original mass plus the net flux
J(a) - J(b), where J(v) is the largest positive excess of first-layer mass
over second-layer mass among closed intervals ending at v.

On a ring and on point sets the collapse is one pass of a cyclic queue
(queue_collapse): first-layer particles off the second layer arrive,
free second-layer sites serve, and the queue length after a site is the
flux there.  Point sets run it on the merged sorted order of both sets.
The restart-loop collapse_discrete_algorithmic and the O(N^2) supremum
discrete_flux_direct are kept as its oracles.

For measures, every step works on one grid: the pair is merged once
(measures.merge_pair) into the sorted breakpoints and atom locations of
both, with each measure's cell density and atom mass aligned to it.  The
signed prefix masses of rho1 - rho2 on that grid give the flux at every
grid position in one cyclic prefix/suffix-minimum pass (an O(B^2)
enumeration of the defining supremum is kept as its oracle), the flux's
positive set and the mass each of its intervals deposits, and the
collapsed measure cell by cell.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import OrderedTuple, PointConfig, TorusConfig
from .measures import (
    ONE,
    ZERO,
    PairGrid,
    TorusMeasure,
    cyc_len,
    cyclic_runs,
    frac,
    merge_pair,
    refined_cells,
)


class CollapseError(ValueError):
    """Raised when the first argument carries more mass than the second."""


# ---------------------------------------------------------------------------
# discrete configurations
# ---------------------------------------------------------------------------


def collapse_discrete_algorithmic(
    eta1: TorusConfig, eta2: TorusConfig, order: Sequence[int] | None = None
) -> TorusConfig:
    """Move particles of eta1 rightward onto free eta2 sites, one at a time:
    the order-independence oracle for the queue kernel.

    `order` lists eta1's particle sites in processing order (default:
    ascending from site 0).  At every step the first particle in that order
    sitting on an eta2-empty site moves to the first site to its right that
    is eta2-occupied and currently eta1-empty.  The result does not depend
    on the order; the test suite checks that.
    """
    if eta1.n != eta2.n:
        raise ValueError("ring sizes differ")
    if eta1.count > eta2.count:
        raise CollapseError("first configuration has more particles")
    n = eta1.n
    positions = list(eta1.sites()) if order is None else list(order)
    if sorted(positions) != sorted(eta1.sites()):
        raise ValueError("order must be a permutation of eta1's particle sites")
    occupied = set(positions)
    while True:
        moved = False
        for idx, p in enumerate(positions):
            if eta2[p]:
                continue
            q = (p + 1) % n
            while not (eta2[q] and q not in occupied):
                q = (q + 1) % n
                if q == p:
                    raise RuntimeError("no destination site found")
            occupied.remove(p)
            occupied.add(q)
            positions[idx] = q
            moved = True
            break
        if not moved:
            return TorusConfig.from_sites(n, occupied)


def queue_collapse(first: Sequence[int], second: Sequence[int]) -> tuple[list[int], list[int]]:
    """The collapse of `first` onto `second` as one cyclic queue over 0/1
    sequences of equal length, with sum(first) <= sum(second).

    A site in `first` only is an arrival, one in `second` only a service,
    one in both keeps its particle.  Lap 1 runs from an empty queue and
    ends at the queue's fixed point: with no more arrivals than services,
    every later lap ends at the same length.  Lap 2 starts there and reads
    off, per site, whether the second-layer site is kept
    (b and (a or q > 0), q the length before the site) and the queue length
    after the site, which is the flux J(x).
    """
    q = 0
    for a, b in zip(first, second):
        if a > b:
            q += 1
        elif b > a and q:
            q -= 1
    kept, lengths = [], []
    for a, b in zip(first, second):
        if a > b:
            q += 1
            kept.append(0)
        elif b > a and q:
            q -= 1
            kept.append(1)
        else:
            kept.append(a & b)
        lengths.append(q)
    return kept, lengths


def _checked_queue(eta1: TorusConfig, eta2: TorusConfig) -> tuple[list[int], list[int]]:
    if eta1.n != eta2.n:
        raise ValueError("ring sizes differ")
    if eta1.count > eta2.count:
        raise CollapseError("first configuration has more particles")
    return queue_collapse(eta1.occupied, eta2.occupied)


def discrete_flux(eta1: TorusConfig, eta2: TorusConfig) -> tuple[int, ...]:
    """Net rightward particle flux across each bond (x, x+1).

    J(x) is the largest positive excess of eta1 over eta2 among cyclic
    closed intervals ending at x: the queue length after x.  With more
    eta1 than eta2 particles the queue has no fixed point; then an interval
    ending at x is the ring minus one starting at x+1, so J(x) is the excess
    plus the length after x+1 of the queue run leftward with the layers
    swapped.
    """
    if eta1.n != eta2.n:
        raise ValueError("ring sizes differ")
    if eta1.count <= eta2.count:
        return tuple(queue_collapse(eta1.occupied, eta2.occupied)[1])
    excess = eta1.count - eta2.count
    back = queue_collapse(eta2.occupied[::-1], eta1.occupied[::-1])[1][::-1]
    return tuple(excess + back[(x + 1) % eta1.n] for x in range(eta1.n))


def discrete_flux_direct(eta1: TorusConfig, eta2: TorusConfig) -> tuple[int, ...]:
    """Defining O(N^2) supremum over all interval left ends (test oracle)."""
    n = eta1.n
    d = [eta1[x] - eta2[x] for x in range(n)]
    out = []
    for x in range(n):
        best = 0
        acc = 0
        for back in range(n):
            acc += d[(x - back) % n]
            best = max(best, acc)
        out.append(best)
    return tuple(out)


def collapse_discrete_flux(
    eta1: TorusConfig, eta2: TorusConfig
) -> tuple[TorusConfig, "FluxProfile"]:
    """The collapse together with its flux profile, for callers that
    report or check the flux."""
    kept, J = _checked_queue(eta1, eta2)
    n = eta1.n
    positive = [j > 0 for j in J]
    full = all(positive)
    runs = () if full else cyclic_runs(positive)
    profile = FluxProfile(
        domain="discrete",
        positions=tuple(range(n)),
        values=tuple(Fraction(j) for j in J),
        slopes=None,
        intervals=tuple(
            JInterval(Fraction(i), Fraction((i + length) % n), True, ZERO) for i, length in runs
        ),
        full_torus=full,
    )
    return TorusConfig(bytes(kept)), profile


def collapse_discrete(eta1: TorusConfig, eta2: TorusConfig) -> TorusConfig:
    """Default discrete collapse: one pass of the cyclic queue (equal to
    the algorithmic one)."""
    return TorusConfig(bytes(_checked_queue(eta1, eta2)[0]))


# ---------------------------------------------------------------------------
# point configurations
# ---------------------------------------------------------------------------


def collapse_points(x: PointConfig, y: PointConfig) -> PointConfig:
    """Move points of x rightward onto free points of y.

    Points of x already sitting on y stay put; a moving point lands on the
    nearest y-point to its right that is not currently occupied by x.  The
    result depends only on the cyclic interleaving of x and y, so it is the
    queue collapse on their merged sorted order.
    """
    if len(x) > len(y):
        raise CollapseError("first point set is larger")
    xs, ys = x.points, y.points
    merged, first, second = [], [], []
    i = j = 0
    while i < len(xs) or j < len(ys):
        if j == len(ys) or (i < len(xs) and xs[i] < ys[j]):
            merged.append(xs[i])
            first.append(1)
            second.append(0)
            i += 1
        elif i == len(xs) or ys[j] < xs[i]:
            merged.append(ys[j])
            first.append(0)
            second.append(1)
            j += 1
        else:
            merged.append(xs[i])
            first.append(1)
            second.append(1)
            i += 1
            j += 1
    kept = queue_collapse(first, second)[0]
    return PointConfig([p for p, k in zip(merged, kept) if k])


def point_flux(x: PointConfig, y: PointConfig) -> "FluxProfile":
    """Flux profile of the pair of unit-atom encodings of x and y."""
    mu = TorusMeasure.from_atoms(x.points, 1)
    nu = TorusMeasure.from_atoms(y.points, 1)
    return flux_profile(mu, nu)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JInterval:
    """Maximal interval of positive flux: [lo, hi) when left_closed, else
    (lo, hi); hi == lo encodes the almost-full interval (lo, lo + 1).
    mass_delta is the first-layer mass excess the interval deposits at hi."""

    lo: Fraction
    hi: Fraction
    left_closed: bool
    mass_delta: Fraction

    def span(self) -> Fraction:
        L = cyc_len(self.lo, self.hi)
        return L if L > 0 else ONE

    def contains(self, u) -> bool:
        u = frac(u) % 1
        t = cyc_len(self.lo, u)
        if t == 0:
            return self.left_closed
        return t < self.span()


@dataclass(frozen=True)
class FluxProfile:
    """Flux J over a refined grid, with its positive set and increments.

    For measures, J is affine with slope slopes[j] on the open cell right of
    positions[j], clipped at zero; values[j] = J(positions[j]) and J is
    right-continuous.  The signed difference measure gamma is determined by
    J through gamma((a, b]) = J(b) - J(a) and has total mass zero.
    """

    domain: str
    positions: tuple
    values: tuple
    slopes: tuple | None
    intervals: tuple[JInterval, ...]
    full_torus: bool = False

    def at(self, v) -> Fraction:
        """Exact J(v) at any point of the torus."""
        if self.domain == "discrete":
            return self.values[int(v) % len(self.positions)]
        v = frac(v) % 1
        j = bisect.bisect_right(self.positions, v) - 1
        if self.positions[j] == v:
            return self.values[j]
        slope = self.slopes[j] if self.slopes else ZERO
        return max(ZERO, self.values[j] + slope * (v - self.positions[j]))

    def left_limit(self, v) -> Fraction:
        """Exact J(v-) at any point of the torus."""
        if self.domain == "discrete":
            return self.values[(int(v) - 1) % len(self.positions)]
        v = frac(v) % 1
        j = bisect.bisect_right(self.positions, v) - 1
        if self.positions[j] == v:
            j = (j - 1) % len(self.positions)
            end = ONE if j == len(self.positions) - 1 else self.positions[j + 1]
            seg = end - self.positions[j]
        else:
            seg = v - self.positions[j]
        slope = self.slopes[j] if self.slopes else ZERO
        return max(ZERO, self.values[j] + slope * seg)

    def gamma_total(self) -> Fraction:
        """Total mass of gamma as the cyclic sum of continuous increments
        and jumps; zero for any flux profile."""
        total = ZERO
        n = len(self.positions)
        for j in range(n):
            nxt = self.positions[(j + 1) % n]
            total += self.left_limit(nxt) - self.values[j]
            total += self.values[(j + 1) % n] - self.left_limit(nxt)
        return total


class _Sigma(NamedTuple):
    """The signed measure sigma = rho1 - rho2 on a pair's merged grid: cell
    densities, atoms, cell lengths, prefix masses s[j] = sigma((0, grid[j]])
    and the total mass."""

    dens: list[Fraction]
    atom: list[Fraction]
    lens: list[Fraction]
    s: list[Fraction]
    total: Fraction


def _sigma_data(pair: PairGrid) -> _Sigma:
    dens = [a - b for a, b in zip(pair.dens1, pair.dens2)]
    atom = [a - b for a, b in zip(pair.atom1, pair.atom2)]
    lens = pair.lens
    n = len(dens)
    s = [ZERO] * n
    acc = ZERO
    for j in range(1, n):
        acc += dens[j - 1] * lens[j - 1] + atom[j]
        s[j] = acc
    total = acc + dens[n - 1] * lens[n - 1] + atom[0]
    return _Sigma(dens, atom, lens, s, total)


def flux_values_direct(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[Fraction, ...]:
    """J at every merged-grid position by full candidate enumeration: the
    O(B^2) oracle for flux_values_fast.

    The supremum over interval left ends is attained among closed and
    left-open starts at grid positions; interior starts are dominated.
    """
    sig = _sigma_data(merge_pair(rho1, rho2))
    s, atom = sig.s, sig.atom
    n = len(s)
    out = []
    for j in range(n):
        best = ZERO
        for i in range(n):
            wrap = sig.total if i > j else ZERO
            e_closed = s[j] - s[i] + atom[i] + wrap
            if e_closed > best:
                best = e_closed
            if i != j and e_closed - atom[i] > best:
                best = e_closed - atom[i]
        out.append(best)
    return tuple(out)


def flux_values_fast(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[Fraction, ...]:
    """Same values as flux_values_direct in one prefix/suffix-minimum pass."""
    return _fast_values(_sigma_data(merge_pair(rho1, rho2)))


def _fast_values(sig: _Sigma) -> tuple[Fraction, ...]:
    s, n = sig.s, len(sig.s)
    pots = [min(s[i], s[i] - sig.atom[i]) for i in range(n)]
    pref = []
    m = pots[0]
    for i in range(n):
        m = min(m, pots[i])
        pref.append(m)
    suf: list[Fraction | None] = [None] * n
    m = None
    for i in range(n - 1, -1, -1):
        suf[i] = m
        m = pots[i] if m is None else min(m, pots[i])
    out = []
    for j in range(n):
        best = s[j] - pref[j]
        if suf[j] is not None:
            best = max(best, s[j] + sig.total - suf[j])
        out.append(max(ZERO, best))
    return tuple(out)


def _positive_ends(grid, values, sig: _Sigma) -> list[Fraction | None]:
    """Per cell, where {J > 0} that starts at the cell's left end stops:
    None when J vanishes on the open cell, else the exact root of the
    affine flux inside the cell or, when there is none, the cell's edge."""
    ends: list[Fraction | None] = []
    for g, v, slope, length in zip(grid, values, sig.dens, sig.lens):
        edge = g + length
        root = g + v / -slope if v > 0 and slope < 0 else edge
        ends.append(min(root, edge) if v > 0 or slope > 0 else None)
    return ends


def _positive_intervals(grid, values, ends, sig: _Sigma) -> tuple[tuple[JInterval, ...], bool]:
    """Maximal intervals of {J > 0} with their excess masses, and whether
    {J > 0} is the whole torus.

    Cell j is cut into three items: the point grid[j], the open stretch up
    to ends[j], and the stretch from there to the next grid position
    (positive only when ends[j] is the edge).  An interval is a maximal
    cyclic run of positive items; it is left-closed when it starts at a
    point and ends at ends[c] of the cell c holding its last item.
    """
    n = len(grid)
    mask = []
    for j in range(n):
        mask += [values[j] > 0, ends[j] is not None, ends[j] == grid[j] + sig.lens[j]]
    if all(mask):
        return (), True
    intervals = []
    for start, length in cyclic_runs(mask):
        i, c = start // 3, (start + length - 1) % (3 * n) // 3
        left_closed = start % 3 == 0
        # sigma of the open interval (grid[i], ends[c]), then the left end
        excess = sig.s[c] + sig.dens[c] * (ends[c] - grid[c]) - sig.s[i]
        if start + length > 3 * n:
            excess += sig.total
        if left_closed:
            excess += sig.atom[i]
        intervals.append(JInterval(grid[i], ends[c] % 1, left_closed, excess))
    return tuple(intervals), False


def _flux_profile(pair: PairGrid) -> tuple[FluxProfile, list[Fraction | None]]:
    """Flux profile of a merged pair, with the positive end of each cell."""
    sig = _sigma_data(pair)
    values = _fast_values(sig)
    ends = _positive_ends(pair.grid, values, sig)
    intervals, full = _positive_intervals(pair.grid, values, ends, sig)
    if full and sig.total < 0:
        raise RuntimeError(
            "positive-flux set covers the torus despite strictly smaller "
            "first mass; flux computation is inconsistent"
        )
    profile = FluxProfile(
        domain="measure",
        positions=tuple(pair.grid),
        values=values,
        slopes=tuple(sig.dens),
        intervals=intervals,
        full_torus=full,
    )
    return profile, ends


def _ordered_pair(rho1: TorusMeasure, rho2: TorusMeasure) -> PairGrid:
    if rho1.total_mass > rho2.total_mass:
        raise CollapseError("first measure has more mass")
    return merge_pair(rho1, rho2)


def flux_profile(rho1: TorusMeasure, rho2: TorusMeasure) -> FluxProfile:
    """Flux profile of a pair of measures with nondecreasing masses.

    Interval left boundaries sit on the merged grid; right boundaries are
    grid positions or exact in-cell roots of the affine flux.  An interval
    is left-closed exactly when J is positive at its left boundary.  The
    positive set can be the full torus only when the masses are equal.
    """
    return _flux_profile(_ordered_pair(rho1, rho2))[0]


def collapse_measure(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[TorusMeasure, FluxProfile]:
    """Collapse rho1 onto rho2: the unique measure charging every (a, b]
    with rho1's mass plus J(a) - J(b).

    Where the flux is positive the result carries rho2's density, elsewhere
    rho1's; flux jumps down deposit atoms.  The result is positive, keeps
    rho1's total mass and is dominated by rho2.
    """
    pair = _ordered_pair(rho1, rho2)
    profile, ends = _flux_profile(pair)
    bps: list[Fraction] = []
    dens: list[Fraction] = []
    atoms: dict[Fraction, Fraction] = {}
    for j, (start, end, edge) in enumerate(zip(pair.grid, ends, pair.grid[1:] + [ONE])):
        bps.append(start)
        if end is None:
            dens.append(pair.dens1[j])
        else:
            dens.append(pair.dens2[j])
            if end < edge:
                bps.append(end)
                dens.append(pair.dens1[j])
        mass = pair.atom1[j] - (profile.values[j] - profile.left_limit(start))
        if mass < 0:
            raise RuntimeError("collapse produced a negative atom")
        if mass > 0:
            atoms[start] = mass

    result = TorusMeasure(bps, dens, atoms.items())
    if result.total_mass != rho1.total_mass:
        raise RuntimeError("collapse failed to conserve mass")
    return result, profile


def collapse_measure_representation(
    rho1: TorusMeasure, rho2: TorusMeasure, profile: FluxProfile
) -> TorusMeasure:
    """Independent assembly of the collapse from the positive-flux set:
    rho1 off it, rho2 on it, plus one atom per interval at its right end.

    Defined only when the positive-flux set is not the whole torus.
    """
    if profile.full_torus:
        raise ValueError("representation requires a nonfull positive-flux set")
    cuts = [*rho1.breakpoints, *rho2.breakpoints]
    cuts += [p for iv in profile.intervals for p in (iv.lo, iv.hi)]
    grid, dens = [], []
    for lo, _, mid in refined_cells(cuts):
        inside = any(iv.contains(mid) for iv in profile.intervals)
        grid.append(lo)
        dens.append((rho2 if inside else rho1).density_at(mid))
    atoms: dict[Fraction, Fraction] = {}
    for a in rho1.atoms:
        if not any(iv.contains(a.at) for iv in profile.intervals):
            atoms[a.at] = atoms.get(a.at, ZERO) + a.mass
    for a in rho2.atoms:
        if any(iv.contains(a.at) for iv in profile.intervals):
            atoms[a.at] = atoms.get(a.at, ZERO) + a.mass
    for iv in profile.intervals:
        if iv.mass_delta < 0:
            raise RuntimeError("interval mass excess must be nonnegative")
        if iv.mass_delta > 0:
            atoms[iv.hi] = atoms.get(iv.hi, ZERO) + iv.mass_delta
    return TorusMeasure(grid, dens, atoms.items())


# ---------------------------------------------------------------------------
# k-fold composition and commutation
# ---------------------------------------------------------------------------


def _mass_of(part):
    if isinstance(part, TorusConfig):
        return part.count
    if isinstance(part, PointConfig):
        return len(part)
    if isinstance(part, TorusMeasure):
        return part.total_mass
    raise TypeError(f"unsupported part type {type(part)!r}")


def _collapse_binary(a, b):
    if isinstance(a, TorusConfig):
        return collapse_discrete(a, b)
    if isinstance(a, PointConfig):
        return collapse_points(a, b)
    if isinstance(a, TorusMeasure):
        return collapse_measure(a, b)[0]
    raise TypeError(f"unsupported part type {type(a)!r}")


def collapse_k(parts: Sequence) -> OrderedTuple:
    """k-fold collapse: the last layer is kept, and layer i is pushed
    through layers i+1, ..., k in turn.  Masses must be nondecreasing."""
    parts = list(parts)
    masses = [_mass_of(p) for p in parts]
    if any(m1 > m2 for m1, m2 in zip(masses, masses[1:])):
        raise CollapseError("masses must be nondecreasing")
    out = []
    for i, part in enumerate(parts):
        theta = part
        for j in range(i + 1, len(parts)):
            theta = _collapse_binary(theta, parts[j])
        out.append(theta)
    return OrderedTuple(out)


def atomic_measure(obj, scale_n: int) -> TorusMeasure:
    """Empirical atomic encoding: mass 1/N at x/N for configurations, at
    each point for point sets."""
    if scale_n <= 0:
        raise ValueError("scale must be positive")
    w = Fraction(1, scale_n)
    if isinstance(obj, TorusConfig):
        return TorusMeasure.from_atoms([Fraction(x, obj.n) for x in obj.sites()], w)
    if isinstance(obj, PointConfig):
        return TorusMeasure.from_atoms(obj.points, w)
    raise TypeError(f"unsupported type {type(obj)!r}")


def commutation_check(parts: Sequence, scale_n: int) -> bool:
    """Whether collapsing then embedding equals embedding then collapsing,
    exactly, for a tuple of configurations or point sets."""
    collapsed = collapse_k(parts)
    lhs = [atomic_measure(p, scale_n) for p in collapsed]
    rhs = list(collapse_k([atomic_measure(p, scale_n) for p in parts]))
    return lhs == rhs
