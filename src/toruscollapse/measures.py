"""Positive measures on the unit torus with exact rational arithmetic.

A measure is a piecewise-constant density plus finitely many atoms.  This
family is closed under every operation needed here (collapse, restriction,
convex combination) and all masses, breakpoints and hull computations stay
exact.  Every input is an int, a "p/q" string or a Fraction; floats are
refused, and floating point enters only in the rate module, through log.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction.  A float raises
    ValueError: its binary value is rarely the rational that was meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"{x!r} is a float; give an int, a 'p/q' string or a Fraction")
    return Fraction(x)


def cyc_len(a: Fraction, b: Fraction) -> Fraction:
    """Length of the cyclic segment from a rightward to b; 0 when a == b."""
    return (b - a) % 1


def _on_torus(x: Fraction) -> Fraction:
    """x reduced mod 1; x itself when it already lies in [0, 1)."""
    n, d = x.as_integer_ratio()
    return x if 0 <= n < d else x % 1


def _numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators, and each value's numerator
    over it: an order-preserving map onto ints."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in ratios])
    return den, [n * (den // d) for n, d in ratios]


class Atom(NamedTuple):
    at: Fraction
    mass: Fraction


@dataclass(frozen=True)
class ClosedArc:
    """Closed cyclic interval [lo, hi]; wraps through 0 when hi < lo."""

    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return cyc_len(self.lo, self.hi)

    def __contains__(self, u) -> bool:
        u = frac(u) % 1
        return cyc_len(self.lo, u) <= cyc_len(self.lo, self.hi)


class TorusMeasure:
    """Piecewise-constant density plus atoms, in canonical form.

    Cells are [bp[i], bp[i+1]) with bp[0] == 0 and an implicit final edge at
    1; adjacent cells with equal density are merged (0 stays a breakpoint),
    so equality of canonical forms is equality of measures.  The checks and
    total_mass run on int numerators over common denominators, and values
    already in [0, 1) are stored as given.
    """

    __slots__ = ("breakpoints", "densities", "atoms", "total_mass")

    def __init__(self, breakpoints: Sequence, densities: Sequence, atoms: Iterable = ()):
        bps = [_on_torus(frac(b)) for b in breakpoints]
        dens = [frac(d) for d in densities]
        if len(bps) != len(dens):
            raise ValueError("need one density per cell")
        if len(bps) == 0:
            bps, dens = [ZERO], [ZERO]
        # order, sign and mass run on int numerators over common denominators
        grid, nums = _numerators(bps)
        if any(a >= b for a, b in zip(nums, nums[1:])):
            raise ValueError("breakpoints must be sorted and distinct")
        ratios = [d.as_integer_ratio() for d in dens]
        if any(n < 0 for n, _ in ratios):
            raise ValueError("densities must be nonnegative")
        if nums[0] != 0:
            # split the wrapping cell at 0 so no cell crosses the origin
            bps, dens = [ZERO, *bps], [dens[-1], *dens]
            nums, ratios = [0, *nums], [ratios[-1], *ratios]
        # merge adjacent equal-density cells (keep the origin breakpoint)
        keep = [0] + [i for i in range(1, len(ratios)) if ratios[i] != ratios[i - 1]]
        ats = [Atom(_on_torus(frac(p)), frac(m)) for p, m in atoms]
        _, at_nums = _numerators([a.at for a in ats])
        order = sorted(range(len(ats)), key=at_nums.__getitem__)
        masses = [a.mass.as_integer_ratio() for a in ats]
        if any(n <= 0 for n, _ in masses):
            raise ValueError("atom masses must be positive")
        if len(set(at_nums)) != len(ats):
            raise ValueError("atom locations must be distinct")
        object.__setattr__(self, "breakpoints", tuple([bps[i] for i in keep]))
        object.__setattr__(self, "densities", tuple([dens[i] for i in keep]))
        object.__setattr__(self, "atoms", tuple([ats[i] for i in order]))
        # the cells carry cell_sum / (grid * dd) of mass, the atoms atom_sum / ad
        dd = math.lcm(*[d for _, d in ratios])
        ends = [nums[i] for i in keep[1:]] + [grid]
        cell_sum = sum(
            (e - nums[i]) * ratios[i][0] * (dd // ratios[i][1]) for i, e in zip(keep, ends)
        )
        ad = math.lcm(*[d for _, d in masses])
        atom_sum = sum(n * (ad // d) for n, d in masses)
        total = Fraction(cell_sum * ad + atom_sum * grid * dd, grid * dd * ad)
        object.__setattr__(self, "total_mass", total)

    def __setattr__(self, name, value):
        raise AttributeError("TorusMeasure is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "TorusMeasure":
        return cls([0], [0])

    @classmethod
    def constant(cls, c) -> "TorusMeasure":
        return cls([0], [frac(c)])

    @classmethod
    def from_cells(cls, cells: Iterable) -> "TorusMeasure":
        """Build from (lo, hi, density) pieces; unspecified regions get 0.

        Pieces are half-open [lo, hi) and may wrap through 0; a piece with
        hi - lo == 1 covers the torus; overlapping pieces add their densities.
        """
        pieces = [(frac(lo), frac(hi), frac(d)) for lo, hi, d in cells]
        # (start, length, density)
        pieces = [(lo % 1, ONE if hi - lo == 1 else cyc_len(lo, hi), d) for lo, hi, d in pieces]
        refined = refined_cells(x for lo, n, _ in pieces for x in (lo, (lo + n) % 1))
        dens = [
            sum((d for lo, n, d in pieces if cyc_len(lo, mid) < n), ZERO)
            for _, _, mid in refined
        ]
        return cls([lo for lo, _, _ in refined], dens)

    @classmethod
    def indicator(cls, lo, hi, height=1) -> "TorusMeasure":
        return cls.from_cells([(lo, hi, height)])

    @classmethod
    def from_atoms(cls, positions: Iterable, mass_each=1) -> "TorusMeasure":
        m = frac(mass_each)
        return cls([0], [0], [(p, m) for p in positions])

    # ---- basic queries -------------------------------------------------

    @property
    def is_absolutely_continuous(self) -> bool:
        return not self.atoms

    def density_at(self, u) -> Fraction:
        """Density of the cell containing u (the a.e. value near u)."""
        u = frac(u) % 1
        i = bisect.bisect_right(self.breakpoints, u) - 1
        return self.densities[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusMeasure)
            and self.breakpoints == other.breakpoints
            and self.densities == other.densities
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.densities, self.atoms))

    def __repr__(self) -> str:
        cells = ", ".join(
            f"[{b},·)={d}" for b, d in zip(self.breakpoints, self.densities)
        )
        ats = ", ".join(f"{a.mass}@{a.at}" for a in self.atoms)
        return f"TorusMeasure({cells}{'; ' + ats if ats else ''})"

    # ---- integration ---------------------------------------------------

    def interval_mass(self, a, b) -> Fraction:
        """Exact mass of the half-open cyclic interval (a, b]; (a, a] is the
        whole torus.  With P(x) the mass of (0, x], it is P(b) - P(a), plus
        the total mass when b <= a."""
        bps, dens = self.breakpoints, self.densities

        def prefix(x: Fraction) -> Fraction:
            i = bisect.bisect_right(bps, x) - 1
            mass = (x - bps[i]) * dens[i]
            mass += sum((hi - lo) * d for lo, hi, d in zip(bps[:i], bps[1 : i + 1], dens))
            return mass + sum((m for at, m in self.atoms if 0 < at <= x), ZERO)

        a, b = frac(a) % 1, frac(b) % 1
        return prefix(b) - prefix(a) + (self.total_mass if b <= a else ZERO)

    # ---- arithmetic ------------------------------------------------------

    def scale(self, c) -> "TorusMeasure":
        c = frac(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if c == 0:
            return TorusMeasure.zero()
        return TorusMeasure(
            self.breakpoints,
            [d * c for d in self.densities],
            [(a.at, a.mass * c) for a in self.atoms],
        )

    def add(self, other: "TorusMeasure") -> "TorusMeasure":
        pair = merge_pair(self, other)
        return TorusMeasure(
            pair.grid,
            [a + b for a, b in zip(pair.dens1, pair.dens2)],
            [(p, a + b) for p, a, b in zip(pair.grid, pair.atom1, pair.atom2) if a + b > 0],
        )

    def __add__(self, other):
        return self.add(other)

    # ---- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [str(b) for b in self.breakpoints],
            "densities": [str(d) for d in self.densities],
            "atoms": [{"at": str(a.at), "mass": str(a.mass)} for a in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, d) -> "TorusMeasure":
        """Inverse of to_json_dict.  Raises ValueError unless d is a dict
        holding 'breakpoints' and 'densities' lists and, optionally, an
        'atoms' list of {'at', 'mass'} objects, with every value a "p/q"
        string or an integer."""
        if not isinstance(d, dict):
            raise ValueError("a measure must be a JSON object")
        atoms = d.get("atoms", [])
        if not isinstance(atoms, list) or not all(
            isinstance(a, dict) and "at" in a and "mass" in a for a in atoms
        ):
            raise ValueError("a measure's 'atoms' must be a list of {'at', 'mass'} objects")
        return cls(
            _json_rationals(d.get("breakpoints"), "a measure's 'breakpoints'"),
            _json_rationals(d.get("densities"), "a measure's 'densities'"),
            zip(
                _json_rationals([a["at"] for a in atoms], "a measure's 'atoms'"),
                _json_rationals([a["mass"] for a in atoms], "a measure's 'atoms'"),
            ),
        )


def _json_rationals(values, field: str) -> list[Fraction]:
    """Read a JSON list of "p/q" strings or integers exactly; `field` names
    it in the ValueError raised for anything else, JSON floats included."""
    if not isinstance(values, list) or not all(type(v) in (str, int) for v in values):
        raise ValueError(f"{field} must be a list of 'p/q' strings or integers")
    try:
        return [frac(v) for v in values]
    except ZeroDivisionError:
        raise ValueError(f"{field} holds a zero denominator") from None


class PairGrid(NamedTuple):
    """Two measures on their merged grid: every breakpoint and atom location
    of either, sorted from 0.  dens*[j] is the density on the cell
    [grid[j], grid[j + 1]) and atom*[j] the atom mass at grid[j]; these are
    the measures' own Fraction objects.

    The same pair in ints: grid[j] is nums[j] / grid_den, atom*[j] is
    atom_nums*[j] / mass_den, and dens*[j] is dens_nums*[j] units of
    1/mass_den mass per 1/grid_den length, so a cell of length n / grid_den
    carries dens_nums*[j] * n / mass_den of mass."""

    grid: list[Fraction]
    dens1: list[Fraction]
    dens2: list[Fraction]
    atom1: list[Fraction]
    atom2: list[Fraction]
    grid_den: int
    mass_den: int
    nums: list[int]
    dens_nums1: list[int]
    dens_nums2: list[int]
    atom_nums1: list[int]
    atom_nums2: list[int]

    @property
    def lens(self) -> list[Fraction]:
        return [hi - lo for lo, hi in zip(self.grid, self.grid[1:] + [ONE])]


def merge_pair(rho1: TorusMeasure, rho2: TorusMeasure) -> PairGrid:
    """Merge a pair once, into aligned arrays over the common grid.

    The grid denominator is the lcm of the denominators of both measures'
    breakpoints and atom locations; the mass denominator is the lcm of the
    atom masses' denominators and of the grid denominator times those of
    the densities.  Sorting and alignment run on numerators over the grid
    denominator, and the Fraction fields reuse the measures' objects."""
    places = [*rho1.breakpoints, *rho2.breakpoints, *(a.at for a in rho1.atoms + rho2.atoms)]
    grid_den, keys = _numerators(places)
    point = dict(zip(keys, places))
    nums = sorted(point)
    dens_den = math.lcm(*[d.denominator for d in rho1.densities + rho2.densities])
    mass_den = math.lcm(grid_den * dens_den, *[a.mass.denominator for a in rho1.atoms + rho2.atoms])
    n1, n2, n3 = len(rho1.breakpoints), len(rho2.breakpoints), len(rho1.atoms)
    bp1, bp2 = keys[:n1], keys[n1 : n1 + n2]
    at1, at2 = keys[n1 + n2 : n1 + n2 + n3], keys[n1 + n2 + n3 :]
    d1, dn1, a1, an1 = _on_pair_grid(rho1, bp1, at1, nums, grid_den, mass_den)
    d2, dn2, a2, an2 = _on_pair_grid(rho2, bp2, at2, nums, grid_den, mass_den)
    grid = [point[k] for k in nums]
    return PairGrid(grid, d1, d2, a1, a2, grid_den, mass_den, nums, dn1, dn2, an1, an2)


def _on_pair_grid(rho, bp_keys, at_keys, nums, grid_den, mass_den):
    """One side of merge_pair: rho's densities and atoms at every grid point,
    as Fractions and as ints, given the int keys of its breakpoints and atom
    locations."""
    cell, i, last = [], 0, len(bp_keys) - 1
    for p in nums:
        while i < last and bp_keys[i + 1] <= p:
            i += 1
        cell.append(i)
    per_len = mass_den // grid_den
    dens_nums = [d.numerator * (per_len // d.denominator) for d in rho.densities]
    dens, dens_nums = [rho.densities[i] for i in cell], [dens_nums[i] for i in cell]
    if not at_keys:
        return dens, dens_nums, [ZERO] * len(nums), [0] * len(nums)
    mass = {k: a.mass for k, a in zip(at_keys, rho.atoms)}
    mass_nums = {k: m.numerator * (mass_den // m.denominator) for k, m in mass.items()}
    return dens, dens_nums, [mass.get(k, ZERO) for k in nums], [mass_nums.get(k, 0) for k in nums]


def refined_cells(cuts: Iterable[Fraction]) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Cells (lo, hi, midpoint) of the torus cut at 0 and at every point of
    `cuts` (points of [0, 1)), in order from 0; the last cell ends at 1."""
    grid = sorted({ZERO, *cuts})
    return [(lo, hi, (lo + hi) / 2) for lo, hi in zip(grid, grid[1:] + [ONE])]


def cyclic_runs(mask: Sequence[bool]) -> list[tuple[int, int]]:
    """Maximal cyclic runs of true entries as (start, length), by start.

    A run may wrap from the last index to 0; an all-true mask is the single
    run (0, len(mask)).
    """
    n = len(mask)
    if all(mask):
        return [(0, n)] if n else []
    runs = []
    start = None
    origin = mask.index(False) + 1  # scan from just after a false entry
    for step in range(n):
        i = (origin + step) % n
        if mask[i] and start is None:
            start = i
        elif not mask[i] and start is not None:
            runs.append((start, (i - start) % n))
            start = None
    return sorted(runs)


def measure_leq_witness(a: TorusMeasure, b: TorusMeasure) -> tuple[bool, str | None]:
    """Whether a(A) <= b(A) for every measurable A, with a witness if not.

    For this representation that is cellwise density domination on the merged
    grid plus pointwise atom domination.
    """
    pair = merge_pair(a, b)
    for bp, x, y in zip(pair.grid, pair.dens1, pair.dens2):
        if x > y:
            return False, f"density {x} > {y} on cell starting at {bp}"
    for at, x, y in zip(pair.grid, pair.atom1, pair.atom2):
        if x > y:
            return False, f"atom at {at}: {x} > {y}"
    return True, None


def measure_leq(a: TorusMeasure, b: TorusMeasure) -> bool:
    return measure_leq_witness(a, b)[0]


# ---- plateau decomposition ------------------------------------------------


@dataclass(frozen=True)
class PlateauDecomposition:
    """Maximal closed cyclic intervals where two densities agree.

    `full_torus` marks the degenerate case of measures equal a.e.
    """

    intervals: tuple[ClosedArc, ...]
    full_torus: bool = False

    def covers(self, u) -> bool:
        if self.full_torus:
            return True
        return any(u in arc for arc in self.intervals)


def plateau_set(rho1: TorusMeasure, rho2: TorusMeasure) -> PlateauDecomposition:
    """Decompose {u : rho1(u) = rho2(u)} into maximal closed cyclic intervals.

    Densities are compared cell by cell on the common refinement, exactly,
    with ==.  Atoms are rejected: plateaus are defined only for densities.
    """
    if rho1.atoms or rho2.atoms:
        raise ValueError("plateau decomposition requires absolutely continuous measures")
    return pair_plateaus(merge_pair(rho1, rho2))


def pair_plateaus(pair: PairGrid) -> PlateauDecomposition:
    """Plateaus of a merged pair of densities: the maximal cyclic runs of
    cells where the two densities are equal."""
    mask = [x == y for x, y in zip(pair.dens1, pair.dens2)]
    if all(mask):
        return PlateauDecomposition((), full_torus=True)
    grid = pair.grid
    return PlateauDecomposition(
        tuple(
            ClosedArc(grid[j], grid[(j + length) % len(grid)])
            for j, length in cyclic_runs(mask)
        )
    )


# ---- cumulative functions and concave envelopes -----------------------------


class CumulativeFunction:
    """Piecewise-linear cumulative mass along a closed arc of the torus.

    Knots are (offset, value) pairs with offset measured rightward from the
    arc's left endpoint; F(0) = 0 and F(L) is the arc mass.
    """

    __slots__ = ("base", "knots")

    def __init__(self, base: ClosedArc, knots: Sequence[tuple[Fraction, Fraction]]):
        knots = tuple([(frac(t), frac(v)) for t, v in knots])
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        if knots[0] != (ZERO, ZERO):
            raise ValueError("cumulative must start at (0, 0)")
        for (t0, _), (t1, _) in zip(knots, knots[1:]):
            if t1 <= t0:
                raise ValueError("knot offsets must increase")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "knots", knots)

    def __setattr__(self, name, value):
        raise AttributeError("CumulativeFunction is immutable")

    @property
    def length(self) -> Fraction:
        return self.knots[-1][0]

    @property
    def final_value(self) -> Fraction:
        return self.knots[-1][1]

    def is_nondecreasing(self) -> bool:
        return all(v1 >= v0 for (_, v0), (_, v1) in zip(self.knots, self.knots[1:]))

    def value_at(self, t) -> Fraction:
        """Exact value at offset t in [0, L], by linear interpolation."""
        t = frac(t)
        if not (0 <= t <= self.length):
            raise ValueError("offset outside the base interval")
        offs = [k[0] for k in self.knots]
        i = bisect.bisect_right(offs, t) - 1
        if i == len(self.knots) - 1:
            return self.knots[-1][1]
        (t0, v0), (t1, v1) = self.knots[i], self.knots[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CumulativeFunction)
            and self.base == other.base
            and self.knots == other.knots
        )

    def __repr__(self) -> str:
        return f"CumulativeFunction({self.base}, {list(self.knots)})"


def cumulative(rho: TorusMeasure, arc: ClosedArc) -> CumulativeFunction:
    """Cumulative mass of rho along the arc, with a knot at every density
    breakpoint inside it.  Requires rho to carry no atoms on the arc."""
    L = arc.length
    if L == 0:
        raise ValueError("arc must have positive length")
    for a in rho.atoms:
        if a.at in arc:
            raise ValueError("cumulative requires no atoms on the arc")
    lo = arc.lo % 1
    bps, dens = rho.breakpoints, rho.densities
    n = len(bps)
    # walk the cells from the one holding lo, wrapping through 0 at most once
    cell = bisect.bisect_right(bps, lo) - 1
    knots = [(ZERO, ZERO)]
    acc = pos = ZERO
    for j in range(cell + 1, cell + n + 1):
        t = bps[j] - lo if j < n else bps[j - n] + 1 - lo
        if t >= L:
            break
        acc += (t - pos) * dens[cell]
        knots.append((t, acc))
        pos, cell = t, j % n
    acc += (L - pos) * dens[cell]
    knots.append((L, acc))
    return CumulativeFunction(arc, knots)


def concave_envelope(F: CumulativeFunction) -> CumulativeFunction:
    """Smallest concave majorant of a nondecreasing piecewise-linear function.

    Computed as the upper hull of the knot set; the result has nonincreasing
    slopes and agrees with F at both endpoints.
    """
    if not F.is_nondecreasing():
        raise ValueError("envelope requires a nondecreasing function")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in F.knots:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            # keep only clockwise turns: slopes must strictly decrease
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return CumulativeFunction(F.base, hull)


def envelope_density(env: CumulativeFunction) -> TorusMeasure:
    """Density on the torus whose cumulative on env's arc is env, read off
    its knots (the slope of each segment), and which vanishes off the arc."""
    lo = env.base.lo
    cells = [
        ((lo + t0) % 1, (v1 - v0) / (t1 - t0))
        for (t0, v0), (t1, v1) in zip(env.knots, env.knots[1:])
    ]
    cells.append(((lo + env.length) % 1, ZERO))
    cells.sort()
    return TorusMeasure([p for p, _ in cells], [d for _, d in cells])
