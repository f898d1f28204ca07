"""The collapsing operator: particles, points and positive measures.

A smaller configuration collapses onto a larger one by moving mass to the
right until domination holds.  Equivalently, the result charges every
half-open interval (a, b] with the original mass plus the net flux
J(a) - J(b), where J(v) is the largest positive excess of first-layer mass
over second-layer mass among closed intervals ending at v.

In all three regimes the collapse is one cyclic queue, queue_collapse, on
int masses: each step brings first-layer mass in and serves second-layer
mass, and the queue length after a step is the flux J there.  On a ring a
step is a site.  Point sets step through the merged sorted order of both
sets, on the int numerators each PointConfig stores over one common
denominator.  A measure pair (measures.merge_pair: ints over one grid and
one mass denominator) steps through the atoms at each grid point, then the
masses of the cell right of it.  The restart-loop
collapse_discrete_algorithmic and the O(N^2) supremum discrete_flux_direct
are the ring's oracles; the O(B^2) enumeration flux_values_direct and
collapse_measure_representation, which reads {J > 0} point by point off
FluxProfile.at, are the measures'.

collapse_measure is the only measure collapse: after the queue, one pass
over the cells places where {J > 0} ends in each (_cell_end), keeps rho2's
density up to there and rho1's after it, and writes the result's ints,
which the measure stores as they are (TorusMeasure.on_grid).  The
FluxProfile stores the five int fields that define J and derives its
intervals and full_torus on read, by the same rule.  collapse_k and the
rate module's minimizers and quantized oracles take the measure and leave
the profile unread.

A FluxProfile always describes a measure pair.  Configurations and point
sets get one through their unit-atom encodings, atomic_measure(p, 1):
embedding commutes with collapsing, so its values at the sites are the
integer flux.

collapse_k folds the binary collapse over the layers, outermost last: each
new layer collapses every collapsed layer so far onto itself, as one row
of the multiline queue of Ferrari and Martin (Ann. Probab. 35, 2007).
The binary collapses own the mass order; collapse_k only words their
refusal as "masses must be nondecreasing".
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import OrderedTuple, PointConfig, TorusConfig
from .measures import (
    ZERO,
    TorusMeasure,
    cyclic_runs,
    frac,
    int_fractions,
    merge_pair,
    refined_cells,
    rescale,
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
    """The collapse of `first` onto `second`, sequences of nonnegative int
    masses of equal length with sum(first) <= sum(second), as one cyclic
    queue.  A step (a, b) keeps min(b, q + a) and leaves the queue at
    max(0, q + a - b), q its length before the step.  Lap 1 runs from an
    empty queue to the queue's fixed point: with no more arrivals than
    services, every later lap ends at the same length.  Lap 2 starts there
    and reads off each step's kept mass and the length after it, the flux
    J there.  On 0/1 sites a second-layer particle is kept exactly when
    b and (a or q > 0).
    """
    if len(first) != len(second):
        raise ValueError(f"sequences of unequal lengths {len(first)} and {len(second)}")
    q = 0
    for a, b in zip(first, second):
        q += a - b
        if q < 0:
            q = 0
    kept, lengths = [], []
    for a, b in zip(first, second):
        q += a
        if q > b:
            kept.append(b)
            q -= b
        else:
            kept.append(q)
            q = 0
        lengths.append(q)
    return kept, lengths


def discrete_flux_direct(eta1: TorusConfig, eta2: TorusConfig) -> tuple[int, ...]:
    """Net rightward particle flux across each bond (x, x+1) by its
    defining O(N^2) supremum over all interval left ends (test oracle for
    the queue lengths of queue_collapse)."""
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
    # the mass order first, so collapse_k refuses a heavier first part on any ring
    if eta1.count > eta2.count:
        raise CollapseError("first configuration has more particles")
    if eta1.n != eta2.n:
        raise ValueError("ring sizes differ")
    return TorusConfig(bytes(queue_collapse(eta1.occupied, eta2.occupied)[0]))


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
    grid, (xk, yk) = rescale([(x.grid, x.nums), (y.grid, y.nums)])
    xs, ys = set(xk), set(yk)
    merged = dict.fromkeys(sorted(xk + yk))
    kept = queue_collapse([p in xs for p in merged], [p in ys for p in merged])[0]
    return PointConfig.on_grid(grid, [p for p, k in zip(merged, kept) if k])


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


class JInterval(NamedTuple):
    """Maximal interval of positive flux: [lo, hi) when left_closed, else
    (lo, hi); hi == lo encodes the almost-full interval (lo, lo + 1).
    mass_delta is the first-layer mass excess the interval deposits at hi."""

    lo: Fraction
    hi: Fraction
    left_closed: bool
    mass_delta: Fraction


def _cell_end(q: int, drift: int, length: int, num: int, grid_den: int):
    """(root, at_edge): where {J > 0} ends in the cell of `length` grid units
    from grid point `num`, J being q there and rising by `drift` per unit:
    at the int ratio root of the draining queue, at the edge, or nowhere."""
    if 0 < q < -drift * length:
        return (num * -drift + q, -drift * grid_den), False
    return None, q > 0 or drift > 0


class FluxProfile(NamedTuple):
    """Flux J of a measure pair, in the ints that define it: grid point j
    is nums[j] / grid_den, J there is flux[j] / mass_den, and J rises by
    drift[j] = dens1 - dens2 (over mass_den per grid unit) across the cell
    right of it, clipped at zero, and is right-continuous; gamma((a, b]) =
    J(b) - J(a) is a signed measure of total mass zero.  Equality compares
    the ints; `positions`, `values`, `slopes` and `intervals` build
    Fractions on read."""

    grid_den: int
    mass_den: int
    nums: list[int]
    drift: list[int]
    flux: list[int]

    @property
    def positions(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(n, self.grid_den) for n in self.nums])

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(int_fractions(self.mass_den), self.flux))

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(map(int_fractions(self.mass_den // self.grid_den), self.drift))

    @property
    def full_torus(self) -> bool:
        """Whether J > 0 on the whole torus."""
        # no interval means J > 0 everywhere or J = 0 everywhere
        return self.flux[0] > 0 and not self.intervals

    @property
    def intervals(self) -> tuple[JInterval, ...]:
        """The maximal intervals of positive flux; none when full_torus."""
        mask, ends = [], []
        edges = self.nums[1:] + [self.grid_den]
        for q, drift, lo, hi in zip(self.flux, self.drift, self.nums, edges):
            root, at_edge = _cell_end(q, drift, hi - lo, lo, self.grid_den)
            # J > 0 at the cell's point, and on the cell up to its edge
            mask += [q > 0, at_edge]
            # where a run ends in the cell, and J just before an end at the edge
            ends.append(((hi, self.grid_den), q + drift * (hi - lo)) if at_edge else (root, 0))
        if all(mask):
            return ()
        grid, mass = self.positions, int_fractions(self.mass_den)
        intervals = []
        # a maximal run is left-closed when it starts at a point; one that
        # ends at a point goes on to the root where J drains inside its cell
        for start, length in cyclic_runs(mask):
            i, c = start // 2, (start + length - 1) % len(mask) // 2
            end, tail = ends[c]
            intervals.append(JInterval(grid[i], Fraction(*end) % 1, start % 2 == 0, mass(tail)))
        return tuple(intervals)

    def at(self, v) -> Fraction:
        """Exact J(v) at any point of the torus, on the ints: for v = n/d
        in cell j, J = max(0, flux[j] d + drift[j] (nG - nums[j] d)) / (Md)."""
        n, d = (frac(v) % 1).as_integer_ratio()
        g = n * self.grid_den
        j = bisect.bisect_right(self.nums, g // d) - 1
        rise = self.drift[j] * (g - self.nums[j] * d)
        return Fraction(max(0, self.flux[j] * d + rise), self.mass_den * d)


def flux_values_direct(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[Fraction, ...]:
    """J at every merged-grid position by full candidate enumeration: the
    O(B^2) oracle for the flux of collapse_measure.

    The supremum over interval left ends is attained among closed and
    left-open starts at grid positions; interior starts are dominated.
    With sigma = rho1 - rho2, s[j] = sigma((0, grid[j]]); the enumeration
    runs on the pair's ints, in units of 1/mass_den mass.
    """
    pair = merge_pair(rho1, rho2)
    atom = [a - b for a, b in zip(pair.atom1, pair.atom2)]
    cell = [(a - b) * length for a, b, length in zip(pair.dens1, pair.dens2, pair.lens)]
    n = len(atom)
    s = [0]
    for j in range(1, n):
        s.append(s[-1] + cell[j - 1] + atom[j])
    total = s[-1] + cell[-1] + atom[0]
    out = []
    for j in range(n):
        best = 0
        for i in range(n):
            wrap = total if i > j else 0
            e_closed = s[j] - s[i] + atom[i] + wrap
            if e_closed > best:
                best = e_closed
            if i != j and e_closed - atom[i] > best:
                best = e_closed - atom[i]
        out.append(best)
    return tuple(map(int_fractions(pair.mass_den), out))


def collapse_measure(rho1: TorusMeasure, rho2: TorusMeasure) -> tuple[TorusMeasure, FluxProfile]:
    """Collapse rho1 onto rho2: the unique measure charging every (a, b]
    with rho1's mass plus J(a) - J(b), and the FluxProfile of J.

    Where the flux is positive the result carries rho2's density, elsewhere
    rho1's; flux jumps down deposit atoms.  The result is positive, keeps
    rho1's total mass and is dominated by rho2.  The profile's intervals
    start on the merged grid, left-closed exactly when J is positive there,
    and cover the torus only when the masses are equal.

    The queue runs on the pair's ints (measures.PairGrid), in units of
    1/mass_den mass, stepping through the atoms at grid point j and then
    the masses of cell j.  One pass over the cells then places where
    {J > 0} ends in each (at the root of the draining queue, at its edge,
    or nowhere) and writes the result's cells, merging equal-density
    neighbours and tallying their mass in ints, so mass conservation is an
    int identity.
    """
    pair = merge_pair(rho1, rho2)
    nums, grid_den, lens = pair.nums, pair.grid_den, pair.lens
    first, second = [0] * (2 * len(nums)), [0] * (2 * len(nums))
    first[0::2], second[0::2] = pair.atom1, pair.atom2
    first[1::2] = [d * n for d, n in zip(pair.dens1, lens)]
    second[1::2] = [d * n for d, n in zip(pair.dens2, lens)]
    mass1, mass2 = sum(first), sum(second)
    if mass1 > mass2:
        raise CollapseError("first measure has more mass")
    kept, lengths = queue_collapse(first, second)
    flux = lengths[0::2]
    drift = [d1 - d2 for d1, d2 in zip(pair.dens1, pair.dens2)]
    bps, dens, atoms, masses = [], [], [], []
    last, kept_mass, full = None, 0, True
    cells = zip(nums, lens, pair.dens1, pair.dens2, drift, flux, kept[0::2])
    for num, length, d1, d2, slope, q, atom in cells:
        if atom < 0:
            raise RuntimeError("collapse produced a negative atom")
        if atom > 0:
            atoms.append(num)
            masses.append(atom)
        root, at_edge = _cell_end(q, slope, length, num, grid_den)
        # rho2's density where J > 0, rho1's after its end: a root's cell
        # keeps q + d1 * length, since the queue drains q there
        d = d2 if root is not None or at_edge else d1
        kept_mass += atom + (q + d1 * length if root is not None else d * length)
        if d != last:
            bps.append((num, grid_den))
            dens.append(d)
            last = d
        if root is not None:
            bps.append(root)
            dens.append(d1)
            last = d1
        full = full and q > 0 and at_edge
    if full and mass1 < mass2:
        raise RuntimeError(
            "positive-flux set covers the torus despite strictly smaller "
            "first mass; flux computation is inconsistent"
        )
    if kept_mass != mass1:
        raise RuntimeError("collapse failed to conserve mass")
    # a root's denominator is its cell's slope times grid_den
    den = math.lcm(*{d for _, d in bps})
    result = TorusMeasure.on_grid(
        den,
        [n * (den // d) for n, d in bps],
        pair.mass_den // grid_den,
        dens,
        [p * (den // grid_den) for p in atoms],
        pair.mass_den,
        masses,
    )
    return result, FluxProfile(grid_den, pair.mass_den, nums, drift, flux)


def collapse_measure_representation(
    rho1: TorusMeasure, rho2: TorusMeasure, profile: FluxProfile
) -> TorusMeasure:
    """Independent assembly of the collapse from {J > 0}, read off profile.at:
    rho1 off it, rho2 on it, plus each interval's mass_delta at its end hi.

    Defined only when the positive-flux set is not the whole torus.
    """
    if profile.full_torus:
        raise ValueError("representation requires a nonfull positive-flux set")
    intervals = profile.intervals
    cuts = [*rho1.breakpoints, *rho2.breakpoints]
    cuts += [p for iv in intervals for p in (iv.lo, iv.hi)]
    grid, dens = [], []
    for lo, _, mid in refined_cells(cuts):
        grid.append(lo)
        dens.append((rho2 if profile.at(mid) > 0 else rho1).density_at(mid))
    atoms: dict[Fraction, Fraction] = {}
    for a in rho1.atoms:
        if profile.at(a.at) == 0:
            atoms[a.at] = atoms.get(a.at, ZERO) + a.mass
    for a in rho2.atoms:
        if profile.at(a.at) > 0:
            atoms[a.at] = atoms.get(a.at, ZERO) + a.mass
    for iv in intervals:
        if iv.mass_delta < 0:
            raise RuntimeError("interval mass excess must be nonnegative")
        if iv.mass_delta > 0:
            atoms[iv.hi] = atoms.get(iv.hi, ZERO) + iv.mass_delta
    return TorusMeasure(grid, dens, atoms.items())


# ---------------------------------------------------------------------------
# k-fold composition and commutation
# ---------------------------------------------------------------------------


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
    one type and their masses nondecreasing: the first binary collapse to
    meet a heavier first part stops the fold."""
    parts = list(parts)
    if len({type(p) for p in parts}) > 1:
        raise ValueError("parts must all be of one type")
    out = []
    try:
        for part in parts:
            out = [_collapse_binary(theta, part) for theta in out] + [part]
    except CollapseError:
        raise CollapseError("masses must be nondecreasing") from None
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
