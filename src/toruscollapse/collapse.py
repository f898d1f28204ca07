"""The collapsing operator: particles, points and positive measures.

A smaller configuration collapses onto a larger one by moving mass to the
right until domination holds.  Equivalently, the result charges every
half-open interval (a, b] with the original mass plus the net flux
J(a) - J(b), where J(v) is the largest positive excess of first-layer mass
over second-layer mass among closed intervals ending at v.

In all three regimes the collapse is one cyclic queue: first-layer mass
off the second layer arrives, free second-layer mass serves, and the queue
length at a position is the flux J there.  With no more first-layer than
second-layer mass, lap 1 from an empty queue ends at the queue's fixed
point; lap 2 starts there and reads off what is kept and J.

On a ring the queue counts particles (queue_collapse): a site in the first
layer only is an arrival, one in the second only a service, and the queue
lengths are the integer flux (discrete_flux).  Point sets run it on the
merged sorted order of both sets: the int numerators each PointConfig
stores, rescaled to one common denominator.  The restart-loop
collapse_discrete_algorithmic and the O(N^2) supremum discrete_flux_direct
are kept as its oracles; discrete_flux itself is kept as the integer flux
that tests hold the measure flux of unit-atom encodings to.

For measures the queue runs as a fluid over the pair's merged grid
(measures.merge_pair): at a grid point q -> max(0, q + atom1 - atom2), and
across a cell q -> max(0, q + (dens1 - dens2) * length).  Lap 2 keeps the
atom min(atom2, q + atom1) at each grid point and rho2's density up to the
end of {J > 0} in each cell, rho1's after it; J just before an interval's
end is the atom the interval deposits there.  Like the points, it runs on
ints: merge_pair puts grid points over one common denominator and masses
over another, so both laps are int arithmetic, and Fractions are built
only for the results.  The O(B^2) enumeration flux_values_direct and the
interval assembly collapse_measure_representation are kept as its oracles.

A FluxProfile always describes a measure pair.  Configurations and point
sets get one through their unit-atom encodings, atomic_measure(p, 1):
embedding commutes with collapsing, so its values at the sites are the
integer flux.  FluxProfile.left_limit is kept as the oracle of the
counting ledger test.

collapse_k folds the binary collapse over the layers, outermost last: each
new layer collapses every collapsed layer so far onto itself, as one row
of the multiline queue of Ferrari and Martin (Ann. Probab. 35, 2007).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import OrderedTuple, PointConfig, TorusConfig, grid_numerators
from .measures import (
    ONE,
    ZERO,
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
    closed intervals ending at x: the queue length after x.
    """
    return tuple(_checked_queue(eta1, eta2)[1])


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
    queue collapse on their merged sorted order, taken on the points'
    numerators over their common denominator.
    """
    if len(x) > len(y):
        raise CollapseError("first point set is larger")
    grid, (xk, yk) = grid_numerators([x, y])
    xs, ys = set(xk), set(yk)
    merged = dict.fromkeys(sorted(xk + yk))
    kept = queue_collapse([p in xs for p in merged], [p in ys for p in merged])[0]
    return PointConfig.on_grid(grid, [p for p, k in zip(merged, kept) if k])


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
    """Flux J of a measure pair over their merged grid, with its positive
    set and increments.

    J is affine with slope slopes[j] on the open cell right of
    positions[j], clipped at zero; values[j] = J(positions[j]) and J is
    right-continuous.  The signed difference measure gamma is determined by
    J through gamma((a, b]) = J(b) - J(a) and has total mass zero.
    """

    positions: tuple
    values: tuple
    slopes: tuple
    intervals: tuple[JInterval, ...]
    full_torus: bool = False

    def at(self, v) -> Fraction:
        """Exact J(v) at any point of the torus."""
        v = frac(v) % 1
        j = bisect.bisect_right(self.positions, v) - 1
        if self.positions[j] == v:
            return self.values[j]
        return max(ZERO, self.values[j] + self.slopes[j] * (v - self.positions[j]))

    def left_limit(self, v) -> Fraction:
        """Exact J(v-) at any point of the torus (oracle of the counting
        ledger test)."""
        v = frac(v) % 1
        j = bisect.bisect_right(self.positions, v) - 1
        if self.positions[j] == v:
            j = (j - 1) % len(self.positions)
            end = ONE if j == len(self.positions) - 1 else self.positions[j + 1]
            seg = end - self.positions[j]
        else:
            seg = v - self.positions[j]
        return max(ZERO, self.values[j] + self.slopes[j] * seg)


def flux_values_direct(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[Fraction, ...]:
    """J at every merged-grid position by full candidate enumeration: the
    O(B^2) oracle for flux_profile.

    The supremum over interval left ends is attained among closed and
    left-open starts at grid positions; interior starts are dominated.
    With sigma = rho1 - rho2, s[j] = sigma((0, grid[j]]).
    """
    pair = merge_pair(rho1, rho2)
    atom = [a - b for a, b in zip(pair.atom1, pair.atom2)]
    cell = [(a - b) * length for a, b, length in zip(pair.dens1, pair.dens2, pair.lens)]
    n = len(atom)
    s = [ZERO]
    for j in range(1, n):
        s.append(s[-1] + cell[j - 1] + atom[j])
    total = s[-1] + cell[-1] + atom[0]
    out = []
    for j in range(n):
        best = ZERO
        for i in range(n):
            wrap = total if i > j else ZERO
            e_closed = s[j] - s[i] + atom[i] + wrap
            if e_closed > best:
                best = e_closed
            if i != j and e_closed - atom[i] > best:
                best = e_closed - atom[i]
        out.append(best)
    return tuple(out)


def _fluid_queue(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[FluxProfile, list, list, list]:
    """The collapse of rho1 onto rho2 as the fluid queue over their merged
    grid (module docstring).  Returns the flux profile and the collapsed
    measure's breakpoints, densities and atoms.

    Both laps run on the pair's ints (measures.PairGrid): the queue counts
    units of 1/mass_den mass and a cell of n grid units changes it by
    (dens1 - dens2) * n.  Lap 2 reads off, per grid position, the kept
    atom, J there (the length after the atom), the end of {J > 0} in the
    cell (the exact root of the draining queue, the cell's edge, or None
    when J vanishes on the open cell) and J just before that end.  The
    root is the only Fraction built in the loop; the other outputs reuse
    the measures' Fractions or are built from the ints afterwards.
    """
    if rho1.total_mass > rho2.total_mass:
        raise CollapseError("first measure has more mass")
    pair = merge_pair(rho1, rho2)
    grid, nums, grid_den = pair.grid, pair.nums, pair.grid_den
    lens = [hi - lo for lo, hi in zip(nums, nums[1:] + [grid_den])]
    cells = list(zip(lens, pair.dens_nums1, pair.dens_nums2, pair.atom_nums1, pair.atom_nums2))
    q = 0
    for length, d1, d2, a1, a2 in cells:
        q = max(0, q + a1 - a2)
        q = max(0, q + (d1 - d2) * length)
    edges = grid[1:] + grid[:1]
    values, ends, tails, mask = [], [], [], []
    bps, dens, atoms = [], [], []
    for j, (length, d1, d2, a1, a2) in enumerate(cells):
        kept = min(a2, q + a1)
        if kept < 0:
            raise RuntimeError("collapse produced a negative atom")
        if kept > 0:
            atoms.append((j, kept))
        q = max(0, q + a1 - a2)
        slope = d1 - d2
        bps.append(grid[j])
        if 0 < q < -slope * length:
            # the queue drains inside the cell, at g + q / (d2 - d1)
            end = Fraction(nums[j] * -slope + q, -slope * grid_den)
            dens += [pair.dens2[j], pair.dens1[j]]
            bps.append(end)
        elif q > 0 or slope > 0:
            end = edges[j]
            dens.append(pair.dens2[j])
        else:
            end = None
            dens.append(pair.dens1[j])
        at_edge = end is edges[j]
        values.append(q)
        ends.append(end)
        mask += [q > 0, end is not None, at_edge]
        q = max(0, q + slope * length)
        tails.append(q if at_edge else 0)
    mass = _int_fractions(pair.mass_den)
    full = all(mask)
    if full:
        if rho1.total_mass < rho2.total_mass:
            raise RuntimeError(
                "positive-flux set covers the torus despite strictly smaller "
                "first mass; flux computation is inconsistent"
            )
        intervals = ()
    else:
        # a maximal run of positive items (point, stretch up to the end,
        # rest of the cell) is left-closed when it starts at a point
        intervals = []
        for start, length in cyclic_runs(mask):
            i, c = start // 3, (start + length - 1) % len(mask) // 3
            intervals.append(JInterval(grid[i], ends[c], start % 3 == 0, mass(tails[c])))
    slope_of = _int_fractions(pair.mass_den // grid_den)
    profile = FluxProfile(
        positions=tuple(grid),
        values=tuple([mass(v) for v in values]),
        slopes=tuple([slope_of(d1 - d2) for _, d1, d2, _, _ in cells]),
        intervals=tuple(intervals),
        full_torus=full,
    )
    atoms = [
        (grid[j], pair.atom2[j] if kept == pair.atom_nums2[j] else mass(kept)) for j, kept in atoms
    ]
    return profile, bps, dens, atoms


def _int_fractions(den: int):
    """n -> Fraction(n, den), built once per distinct n and ZERO for 0."""
    made = {0: ZERO}

    def of(n: int) -> Fraction:
        f = made.get(n)
        if f is None:
            f = made[n] = Fraction(n, den)
        return f

    return of


def flux_profile(rho1: TorusMeasure, rho2: TorusMeasure) -> FluxProfile:
    """Flux profile of a pair of measures with nondecreasing masses.

    Interval left boundaries sit on the merged grid; right boundaries are
    grid positions or exact in-cell roots of the affine flux.  An interval
    is left-closed exactly when J is positive at its left boundary.  The
    positive set can be the full torus only when the masses are equal.
    """
    return _fluid_queue(rho1, rho2)[0]


def collapse_measure(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[TorusMeasure, FluxProfile]:
    """Collapse rho1 onto rho2: the unique measure charging every (a, b]
    with rho1's mass plus J(a) - J(b).

    Where the flux is positive the result carries rho2's density, elsewhere
    rho1's; flux jumps down deposit atoms.  The result is positive, keeps
    rho1's total mass and is dominated by rho2.
    """
    profile, bps, dens, atoms = _fluid_queue(rho1, rho2)
    result = TorusMeasure(bps, dens, atoms)
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
    """k-fold collapse as a fold over the layers: each new outer layer is
    kept, and every collapsed layer so far collapses onto it.  Layer i is
    thus pushed through layers i+1, ..., k in turn.  The parts must be of
    one type and their masses nondecreasing."""
    parts = list(parts)
    if len({type(p) for p in parts}) > 1:
        raise ValueError("parts must all be of one type")
    masses = [_mass_of(p) for p in parts]
    if any(m1 > m2 for m1, m2 in zip(masses, masses[1:])):
        raise CollapseError("masses must be nondecreasing")
    out = []
    for part in parts:
        out = [_collapse_binary(theta, part) for theta in out] + [part]
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
