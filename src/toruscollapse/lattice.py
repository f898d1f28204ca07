"""Torus geometry and particle/point configurations.

Discrete side: occupation vectors on the ring of N sites and multiclass
label encodings.  Continuous side: finite sets of exact-rational points on
the unit torus.  Everything here is an immutable value and every function
is pure.  A configuration is a frozen dataclass of its fields, which give
its equality and hash.  OrderedTuple alone decides the order of layers.

Only single layers are enumerated; the exact solve in dynamics reaches
multiclass states by walking the ring dynamics instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .measures import TorusMeasure, frac, int_fractions, merge_pair, numerators, rescale

# Largest ring that exhaustive helpers run on (oracles stay tractable).
MAX_ENUM_N = 12

# Denominator of the sampling grid for random points on the torus.
POINT_GRID = 2**53


class EnumerationLimitError(ValueError):
    """Raised when an exhaustive helper would enumerate too many states."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class TorusConfig:
    """Occupation vector on Z_N, one byte per site, with a cached particle
    count."""

    n: int
    occupied: bytes
    count: int

    def __init__(self, occupied: Sequence[int]):
        if type(occupied) is bytes:
            bits = occupied
        else:
            values = list(occupied)
            if not all(v == 0 or v == 1 for v in values):
                raise ValueError("occupation values must be 0 or 1")
            bits = bytes(v == 1 for v in values)
        if bits.translate(None, b"\x00\x01"):
            raise ValueError("occupation values must be 0 or 1")
        if not bits:
            raise ValueError("ring must have at least one site")
        object.__setattr__(self, "n", len(bits))
        object.__setattr__(self, "occupied", bits)
        object.__setattr__(self, "count", bits.count(1))

    @classmethod
    def from_sites(cls, n: int, sites: Sequence[int]) -> "TorusConfig":
        bits = bytearray(n)
        for x in sites:
            bits[x % n] = 1
        return cls(bytes(bits))

    def sites(self) -> tuple[int, ...]:
        return tuple(x for x, b in enumerate(self.occupied) if b)

    def __getitem__(self, x: int) -> int:
        return self.occupied[x % self.n]

    def __repr__(self) -> str:
        return f"TorusConfig({list(self.occupied)})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PointConfig:
    """Finite set of distinct rational points on the unit torus [0, 1),
    given as ints, "p/q" strings or Fractions (a float raises ValueError),
    stored as `grid`, the smallest common denominator of the points, and
    `nums`, their sorted numerators over it; `points` builds Fractions."""

    grid: int
    nums: tuple[int, ...]

    def __init__(self, points: Sequence[Fraction]):
        grid, nums = numerators([frac(p) for p in points])
        self._store(grid, sorted(nums))

    @classmethod
    def on_grid(cls, grid: int, nums: Sequence[int]) -> "PointConfig":
        """The points nums[i] / grid, for strictly increasing ints nums."""
        config = object.__new__(cls)
        config._store(grid, nums)
        return config

    def _store(self, grid: int, nums: Sequence[int]) -> None:
        if grid < 1:
            raise ValueError("grid must be a positive int")
        if nums and not (0 <= nums[0] and nums[-1] < grid):
            raise ValueError("points must lie in [0, 1)")
        for a, b in zip(nums, nums[1:]):
            if a >= b:
                raise ValueError("points must be distinct" if a == b else "numerators must increase")
        g = math.gcd(grid, *nums)
        object.__setattr__(self, "grid", grid // g)
        object.__setattr__(self, "nums", tuple(n // g for n in nums))

    @property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.grid) for n in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self) -> str:
        return f"PointConfig({[str(p) for p in self.points]})"


def class_label_encode(parts: Sequence[TorusConfig]) -> tuple[int, ...]:
    """Encode an ordered k-tuple of configurations as a label vector.

    Label 0 marks a hole; label j marks a site whose first occupied layer is
    layer j.  Requires eta_1 <= eta_2 <= ... <= eta_k componentwise, so a
    site held by s of the k layers first appears in layer k + 1 - s.
    """
    if not parts:
        raise ValueError("need at least one configuration to encode")
    layers = [eta.occupied for eta in OrderedTuple(parts)]
    return tuple(len(layers) + 1 - s if s else 0 for s in map(sum, zip(*layers)))


def _violation(a, b) -> str | None:
    """Where the order a <= b first fails, or None where it holds."""
    if isinstance(a, TorusConfig):  # componentwise
        if a.n != b.n:
            return "ring sizes differ"
        for x, (p, q) in enumerate(zip(a.occupied, b.occupied)):
            if p > q:
                return f"site {x}"
    elif isinstance(a, PointConfig):  # by inclusion
        grid, (inner, outer) = rescale([(a.grid, a.nums), (b.grid, b.nums)])
        missing = set(inner).difference(outer)
        if missing:
            return f"point {Fraction(min(missing), grid)} not included"
    elif isinstance(a, TorusMeasure):
        # domination: cellwise for densities, pointwise for atoms
        pair = merge_pair(a, b)
        for p, x, y in zip(pair.nums, pair.dens1, pair.dens2):
            if x > y:
                dens = int_fractions(pair.mass_den // pair.grid_den)
                return f"density {dens(x)} > {dens(y)} on cell starting at {Fraction(p, pair.grid_den)}"
        for p, x, y in zip(pair.nums, pair.atom1, pair.atom2):
            if x > y:
                mass = int_fractions(pair.mass_den)
                return f"atom at {Fraction(p, pair.grid_den)}: {mass(x)} > {mass(y)}"
    else:
        raise TypeError(f"unsupported part type {type(a)!r}")


class OrderedTuple(tuple):
    """k-tuple of configurations / point sets / measures satisfying the order."""

    __slots__ = ()

    def __new__(cls, parts: Sequence):
        parts = tuple(parts)
        for i, where in enumerate(map(_violation, parts, parts[1:])):
            if where is not None:
                raise ValueError(f"ordering violated: parts {i},{i+1}: {where}")
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"OrderedTuple({list(self)})"


def check_enumerable(n: int) -> None:
    """Refuse an exhaustive helper on a ring of more than MAX_ENUM_N sites."""
    if n > MAX_ENUM_N:
        raise EnumerationLimitError(f"refusing exhaustive enumeration for N={n} > {MAX_ENUM_N}")


def enumerate_configs(n: int, m: int) -> Iterator[TorusConfig]:
    """All configurations with m particles on n sites (exhaustive helper)."""
    check_enumerable(n)
    for sites in itertools.combinations(range(n), m):
        yield TorusConfig.from_sites(n, sites)


def compositions(total: int, parts: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """The tuples of `parts` nonnegative ints summing to `total`, each at
    most `cap` when one is given, in lexicographic order."""
    if parts == 1:
        if cap is None or total <= cap:
            yield (total,)
        return
    top = total if cap is None else min(total, cap)
    for first in range(top + 1):
        for rest in compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def random_points(count: int, rng) -> PointConfig:
    """Draw `count` distinct points from the fine rational grid on [0, 1)."""
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.getrandbits(53))
    return PointConfig.on_grid(POINT_GRID, sorted(chosen))


def random_config(n: int, m: int, rng) -> TorusConfig:
    """Uniform random configuration with m particles on n sites."""
    return TorusConfig.from_sites(n, rng.sample(range(n), m))
