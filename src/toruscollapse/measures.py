"""Positive measures on the unit torus with exact rational arithmetic.

A measure is a piecewise-constant density plus finitely many atoms.  This
family is closed under every operation needed here (collapse, restriction,
convex combination) and all masses, breakpoints and hull computations stay
exact.  Every input is an int, a "p/q" string or a Fraction; floats are
refused, and floating point enters only in the rate module, through log.

A TorusMeasure has one format, that of a PointConfig: ints over least
common denominators, one for its positions, one for its densities and one
for its atom masses.  Package code reads and writes those ints; Fractions
are built only for outside readers.  A pair of measures is read through
merge_pair, which rescales both measures' ints onto common denominators
with `rescale`, the helper the point sets use too.  A plateau's
cumulative keeps the pair's ints, and its concave envelope is a hull on
them.
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
    ValueError: its binary value is rarely the rational that was meant; so
    does a zero denominator, naming the value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"{x!r} is a float; give an int, a 'p/q' string or a Fraction")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


def cyc_len(a: Fraction, b: Fraction) -> Fraction:
    """Length of the cyclic segment from a rightward to b; 0 when a == b."""
    return (b - a) % 1


def numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators, and each value's numerator
    over it: an order-preserving map onto ints."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in ratios])
    return den, [n * (den // d) for n, d in ratios]


def rescale(parts: Sequence[tuple[int, Sequence[int]]], den: int = 1) -> tuple[int, list]:
    """Put ints given over their own denominators, as (denominator, ints)
    parts, onto one: the lcm of `den` and the parts' denominators, and each
    part's ints over it.

    The map is injective and order-preserving, so comparisons, hashing,
    sums and differences can run on the ints."""
    den = math.lcm(den, *[d for d, _ in parts])
    return den, [[n * (den // d) for n in nums] for d, nums in parts]


def int_fractions(den: int):
    """n -> Fraction(n, den), built once per distinct n and ZERO for 0: the
    way back from ints over one denominator to the Fractions of outputs."""
    made = {0: ZERO}

    def of(n: int) -> Fraction:
        f = made.get(n)
        if f is None:
            f = made[n] = Fraction(n, den)
        return f

    return of


class Atom(NamedTuple):
    at: Fraction
    mass: Fraction


@dataclass(frozen=True)
class ClosedArc:
    """Closed cyclic interval [lo, hi]; wraps through 0 when hi < lo."""

    lo: Fraction
    hi: Fraction


@dataclass(frozen=True, slots=True, init=False, repr=False)
class TorusMeasure:
    """Piecewise-constant density plus atoms, in canonical form.

    Cells are [bp[i], bp[i+1]) with bp[0] == 0 and an implicit final edge at
    1; adjacent cells with equal density are merged (0 stays a breakpoint),
    and atoms are sorted by location.  The measure is stored in ints, as a
    PointConfig is:
    - `grid`, the least common denominator of the breakpoints and atom
      locations, with `bp_nums` and `atom_nums` their numerators over it;
    - `dens_den` and `dens_nums`, the densities over their least common
      denominator;
    - `mass_den` and `mass_nums`, the atom masses over theirs.
    Equal measures are equal ints, so the dataclass's equality and hash
    read only those fields.  `breakpoints`, `densities`, `atoms` and
    `total_mass` build Fractions for readers outside the package.
    """

    grid: int
    bp_nums: tuple[int, ...]
    atom_nums: tuple[int, ...]
    dens_den: int
    dens_nums: tuple[int, ...]
    mass_den: int
    mass_nums: tuple[int, ...]

    def __init__(self, breakpoints: Sequence, densities: Sequence, atoms: Iterable = ()):
        bps = [frac(b) for b in breakpoints]
        dens = [frac(d) for d in densities]
        if len(bps) != len(dens):
            raise ValueError("need one density per cell")
        ats = [(frac(p), frac(m)) for p, m in atoms]
        # positions go onto one grid first and onto the torus after: x and
        # x mod 1 share their reduced denominator
        grid, nums = numerators(bps + [p for p, _ in ats])
        dens_den, dens_nums = numerators(dens)
        mass_den, mass_nums = numerators([m for _, m in ats])
        nums = [n % grid for n in nums]
        k = len(bps)
        self._store(grid, nums[:k], dens_den, dens_nums, nums[k:], mass_den, mass_nums)

    @classmethod
    def on_grid(cls, grid, bp_nums, dens_den, dens_nums, atom_nums=(), mass_den=1, mass_nums=()):
        """The measure with breakpoints bp_nums and atom locations atom_nums
        over grid, in [0, grid), densities dens_nums over dens_den and atom
        masses mass_nums over mass_den (all ints), through the constructor's
        checks and canonical form."""
        rho = object.__new__(cls)
        rho._store(grid, bp_nums, dens_den, dens_nums, atom_nums, mass_den, mass_nums)
        return rho

    def _store(self, grid, bp_nums, dens_den, dens_nums, atom_nums, mass_den, mass_nums) -> None:
        if min(grid, dens_den, mass_den) < 1:
            raise ValueError("denominators must be positive ints")
        if not len(bp_nums):
            bp_nums, dens_nums = [0], [0]
        if any(a >= b for a, b in zip(bp_nums, bp_nums[1:])):
            raise ValueError("breakpoints must be sorted and distinct")
        if any(d < 0 for d in dens_nums):
            raise ValueError("densities must be nonnegative")
        if bp_nums[0] != 0:
            # split the wrapping cell at 0 so no cell crosses the origin
            bp_nums, dens_nums = [0, *bp_nums], [dens_nums[-1], *dens_nums]
        # merge adjacent equal-density cells (keep the origin breakpoint)
        keep = [0] + [i for i in range(1, len(dens_nums)) if dens_nums[i] != dens_nums[i - 1]]
        if any(m <= 0 for m in mass_nums):
            raise ValueError("atom masses must be positive")
        order = sorted(range(len(atom_nums)), key=atom_nums.__getitem__)
        ats = [atom_nums[i] for i in order]
        if any(a == b for a, b in zip(ats, ats[1:])):
            raise ValueError("atom locations must be distinct")
        if bp_nums[0] < 0 or bp_nums[-1] >= grid or ats and (ats[0] < 0 or ats[-1] >= grid):
            raise ValueError("positions must lie in [0, 1)")
        bps, dens = [bp_nums[i] for i in keep], [dens_nums[i] for i in keep]
        masses = [mass_nums[i] for i in order]
        # each denominator reduced with its numerators, to the least one
        g, h, k = math.gcd(grid, *bps, *ats), math.gcd(dens_den, *dens), math.gcd(mass_den, *masses)
        stored = (grid // g, [b // g for b in bps], [a // g for a in ats], dens_den // h)
        stored += ([d // h for d in dens], mass_den // k, [m // k for m in masses])
        for name, value in zip(self.__slots__, stored):
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "TorusMeasure":
        n, d = frac(c).as_integer_ratio()
        return cls.on_grid(1, [0], d, [n])

    @classmethod
    def from_cells(cls, cells: Iterable) -> "TorusMeasure":
        """Build from (lo, hi, density) pieces; unspecified regions get 0.

        Pieces are half-open [lo, hi) and may wrap through 0; a piece with
        hi - lo == 1 covers the torus; overlapping pieces add their densities.
        A piece with |hi - lo| > 1 raises ValueError.
        """
        pieces = [(frac(lo), frac(hi), frac(d)) for lo, hi, d in cells]
        for lo, hi, d in pieces:
            if abs(hi - lo) > 1:
                raise ValueError(f"piece ({lo}, {hi}, {d}) is longer than the torus")
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
        """Atoms of mass_each at the positions, taken mod 1."""
        n, d = frac(mass_each).as_integer_ratio()
        grid, nums = numerators([frac(p) for p in positions])
        return cls.on_grid(grid, [0], 1, [0], [x % grid for x in nums], d, [n] * len(nums))

    # ---- basic queries -------------------------------------------------

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(n, self.grid) for n in self.bp_nums])

    @property
    def densities(self) -> tuple[Fraction, ...]:
        return tuple(map(int_fractions(self.dens_den), self.dens_nums))

    @property
    def atoms(self) -> tuple[Atom, ...]:
        mass = int_fractions(self.mass_den)
        ats = zip(self.atom_nums, self.mass_nums)
        return tuple([Atom(Fraction(p, self.grid), mass(m)) for p, m in ats])

    @property
    def lens(self) -> list[int]:
        """Cell lengths in units of 1/grid."""
        return [hi - lo for lo, hi in zip(self.bp_nums, [*self.bp_nums[1:], self.grid])]

    @property
    def total_mass(self) -> Fraction:
        # the cells carry cells / (grid * dens_den) of mass, the atoms atoms / mass_den
        cells = sum([n * d for n, d in zip(self.lens, self.dens_nums)])
        atoms, cell_den = sum(self.mass_nums), self.grid * self.dens_den
        return Fraction(cells * self.mass_den + atoms * cell_den, cell_den * self.mass_den)

    @property
    def is_absolutely_continuous(self) -> bool:
        return not self.atom_nums

    def density_at(self, u) -> Fraction:
        """Density of the cell containing u (the a.e. value near u)."""
        n, d = (frac(u) % 1).as_integer_ratio()
        # the last breakpoint b / grid <= n / d is the last b <= n * grid // d
        i = bisect.bisect_right(self.bp_nums, n * self.grid // d) - 1
        return Fraction(self.dens_nums[i], self.dens_den)

    def __repr__(self) -> str:
        cells = ", ".join(
            f"[{b},·)={d}" for b, d in zip(self.breakpoints, self.densities)
        )
        ats = ", ".join(f"{a.mass}@{a.at}" for a in self.atoms)
        return f"TorusMeasure({cells}{'; ' + ats if ats else ''})"

    # ---- arithmetic ------------------------------------------------------

    def scale(self, c) -> "TorusMeasure":
        c = frac(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if c == 0:
            return TorusMeasure.constant(0)
        n, d = c.as_integer_ratio()
        return TorusMeasure.on_grid(
            self.grid,
            self.bp_nums,
            self.dens_den * d,
            [x * n for x in self.dens_nums],
            self.atom_nums,
            self.mass_den * d,
            [m * n for m in self.mass_nums],
        )

    def add(self, other: "TorusMeasure") -> "TorusMeasure":
        pair = merge_pair(self, other)
        atoms = [(p, a + b) for p, a, b in zip(pair.nums, pair.atom1, pair.atom2) if a + b > 0]
        return TorusMeasure.on_grid(
            pair.grid_den,
            pair.nums,
            pair.mass_den // pair.grid_den,
            [a + b for a, b in zip(pair.dens1, pair.dens2)],
            [p for p, _ in atoms],
            pair.mass_den,
            [m for _, m in atoms],
        )

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
            json_rationals(d.get("breakpoints"), "a measure's 'breakpoints'"),
            json_rationals(d.get("densities"), "a measure's 'densities'"),
            zip(
                json_rationals([a["at"] for a in atoms], "a measure's 'atoms'"),
                json_rationals([a["mass"] for a in atoms], "a measure's 'atoms'"),
            ),
        )


def json_rationals(values, field: str) -> list[Fraction]:
    """Read a JSON list of "p/q" strings or integers exactly; `field` names
    it in the ValueError raised for anything else, JSON floats included."""
    if not isinstance(values, list) or not all(type(v) in (str, int) for v in values):
        raise ValueError(f"{field} must be a list of 'p/q' strings or integers")
    return [read_field(field, v) for v in values]


def read_field(field: str, value, read=frac):
    """read(value), with `field` named in the ValueError it raises."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


class PairGrid(NamedTuple):
    """Two measures on their merged grid: every breakpoint and atom location
    of either, sorted from 0, in ints.

    nums[j] / grid_den is the j-th grid point.  atom*[j] is the atom mass
    there in units of 1/mass_den, and dens*[j] the density on the cell from
    it to the next point in units of 1/mass_den mass per 1/grid_den
    length, so a cell of lens[j] grid units carries dens*[j] * lens[j] /
    mass_den of mass."""

    grid_den: int
    mass_den: int
    nums: list[int]
    dens1: list[int]
    dens2: list[int]
    atom1: list[int]
    atom2: list[int]

    @property
    def lens(self) -> list[int]:
        return [hi - lo for lo, hi in zip(self.nums, self.nums[1:] + [self.grid_den])]


def merge_pair(rho1: TorusMeasure, rho2: TorusMeasure) -> PairGrid:
    """Merge a pair once, into aligned int arrays over the common grid.

    The measures' stored ints are rescaled (`rescale`): positions to the
    grid denominator, the lcm of both measures' grids; atom masses to the
    mass denominator, the lcm of both atom-mass denominators and of the
    grid denominator times the densities' common denominator; densities
    to the mass denominator per grid unit."""
    grid_den, (bp1, at1, bp2, at2) = rescale(
        [(rho1.grid, rho1.bp_nums), (rho1.grid, rho1.atom_nums)]
        + [(rho2.grid, rho2.bp_nums), (rho2.grid, rho2.atom_nums)]
    )
    dens_den = math.lcm(rho1.dens_den, rho2.dens_den)
    mass_den, (m1, m2) = rescale(
        [(rho1.mass_den, rho1.mass_nums), (rho2.mass_den, rho2.mass_nums)], grid_den * dens_den
    )
    _, (d1, d2) = rescale(
        [(rho1.dens_den, rho1.dens_nums), (rho2.dens_den, rho2.dens_nums)], mass_den // grid_den
    )
    nums = sorted({*bp1, *bp2, *at1, *at2})
    dens1, dens2 = _cellwise(nums, bp1, d1), _cellwise(nums, bp2, d2)
    atom1, atom2 = _pointwise(nums, at1, m1), _pointwise(nums, at2, m2)
    return PairGrid(grid_den, mass_den, nums, dens1, dens2, atom1, atom2)


def _cellwise(nums: list[int], bps: list[int], dens: list[int]) -> list[int]:
    """The density on each cell of the sorted grid nums, which holds the
    breakpoints bps (from 0) of the cells of densities dens."""
    starts, out, d = dict(zip(bps, dens)), [], 0
    for p in nums:
        d = starts.get(p, d)
        out.append(d)
    return out


def _pointwise(nums: list[int], ats: list[int], masses: list[int]) -> list[int]:
    """The atom mass at each point of the grid nums, 0 off the atoms."""
    if not ats:
        return [0] * len(nums)
    at = dict(zip(ats, masses))
    return [at.get(p, 0) for p in nums]


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


# ---- cumulative functions, plateaus and concave envelopes --------------------


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CumulativeFunction:
    """Piecewise-linear cumulative mass along a closed arc of the torus.

    Stored in ints, as a TorusMeasure is: `base`, the arc; the knot
    offsets `offs`, measured rightward from the arc's left endpoint, over
    `len_den`; the knot values `vals` over `mass_den`.  Each denominator is
    reduced with its ints to the least one, so equal cumulatives are equal
    ints.  F(0) = 0 and F(L) is the arc mass.  `knots` builds Fractions for
    readers outside the package.
    """

    base: ClosedArc
    len_den: int
    offs: tuple[int, ...]
    mass_den: int
    vals: tuple[int, ...]

    def __init__(self, base: ClosedArc, len_den: int, offs: Sequence, mass_den: int, vals: Sequence):
        if len(offs) != len(vals) or len(offs) < 2:
            raise ValueError("need at least two knots, one value per offset")
        if offs[0] != 0 or vals[0] != 0:
            raise ValueError("cumulative must start at (0, 0)")
        if any(t1 <= t0 for t0, t1 in zip(offs, offs[1:])):
            raise ValueError("knot offsets must increase")
        g, h = math.gcd(len_den, *offs), math.gcd(mass_den, *vals)
        stored = (base, len_den // g, tuple([t // g for t in offs]))
        stored += (mass_den // h, tuple([v // h for v in vals]))
        for name, value in zip(self.__slots__, stored):
            object.__setattr__(self, name, value)

    @property
    def knots(self) -> tuple[tuple[Fraction, Fraction], ...]:
        offset, mass = int_fractions(self.len_den), int_fractions(self.mass_den)
        return tuple([(offset(t), mass(v)) for t, v in zip(self.offs, self.vals)])

    def __repr__(self) -> str:
        return f"CumulativeFunction({self.base}, {list(self.knots)})"


@dataclass(frozen=True)
class PlateauDecomposition:
    """Maximal closed cyclic intervals where two densities agree, each as
    the cumulative mass the two densities share along it.

    `full_torus` marks the degenerate case of measures equal a.e.
    """

    cumulatives: tuple[CumulativeFunction, ...]
    full_torus: bool = False

    @property
    def intervals(self) -> tuple[ClosedArc, ...]:
        return tuple(F.base for F in self.cumulatives)


def pair_plateaus(pair: PairGrid) -> PlateauDecomposition:
    """Plateaus of a merged pair of densities: the maximal cyclic runs of
    cells where the two densities are equal, compared exactly.  Each comes
    with its cumulative, a knot at every grid point of the run, from running
    sums of the cells' lengths and masses in the pair's ints.  Atoms are not
    read: plateaus are defined only for densities."""
    mask = [x == y for x, y in zip(pair.dens1, pair.dens2)]
    if all(mask):
        return PlateauDecomposition((), full_torus=True)
    nums, lens, dens, n = pair.nums, pair.lens, pair.dens1, len(pair.nums)
    cumulatives = []
    for start, length in cyclic_runs(mask):
        offs, vals = [0], [0]
        for j in range(start, start + length):
            offs.append(offs[-1] + lens[j % n])
            vals.append(vals[-1] + dens[j % n] * lens[j % n])
        ends = (nums[start], nums[(start + length) % n])
        arc = ClosedArc(*[Fraction(p, pair.grid_den) for p in ends])
        cumulatives.append(CumulativeFunction(arc, pair.grid_den, offs, pair.mass_den, vals))
    return PlateauDecomposition(tuple(cumulatives))


def concave_envelope(F: CumulativeFunction) -> CumulativeFunction:
    """Smallest concave majorant of a nondecreasing piecewise-linear function.

    Computed as the upper hull of the knot set, on F's ints: scaling either
    axis by a positive constant keeps the sign of every turn.  The result
    has nonincreasing slopes and agrees with F at both endpoints.
    """
    if any(v1 < v0 for v0, v1 in zip(F.vals, F.vals[1:])):
        raise ValueError("envelope requires a nondecreasing function")
    hull: list[tuple[int, int]] = []
    for p in zip(F.offs, F.vals):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            # keep only clockwise turns: slopes must strictly decrease
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    offs, vals = zip(*hull)
    return CumulativeFunction(F.base, F.len_den, offs, F.mass_den, vals)


def envelope_density(env: CumulativeFunction) -> TorusMeasure:
    """Density on the torus whose cumulative on env's arc is env, read off
    its knots (the slope of each segment), and which vanishes off the arc.

    On ints: positions over the lcm of the arc's and the offsets'
    denominators, and each segment's slope, rise * len_den / (run *
    mass_den), over mass_den times the lcm of the runs."""
    lo_n, lo_d = env.base.lo.as_integer_ratio()
    grid, ([lo], offs) = rescale([(lo_d, [lo_n]), (env.len_den, env.offs)])
    runs = [t1 - t0 for t0, t1 in zip(env.offs, env.offs[1:])]
    run_den = math.lcm(*runs)
    rises = [v1 - v0 for v0, v1 in zip(env.vals, env.vals[1:])]
    slopes = [v * env.len_den * (run_den // r) for v, r in zip(rises, runs)]
    bps, dens = zip(*sorted(zip([(lo + t) % grid for t in offs], [*slopes, 0])))
    return TorusMeasure.on_grid(grid, bps, env.mass_den * run_den, dens)
