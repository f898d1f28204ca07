"""Large-deviation rate functionals of the multiclass invariant measures.

The one-layer functional integrates a relative-entropy kernel over the
density profile.  The two-layer functional has a closed form: off the
plateaus (where the two profiles differ) it charges the first profile
directly; on every plateau interval the first profile is replaced by the
slope sequence of the concave envelope of its cumulative; the second
profile is charged everywhere.  A dynamic program over discretized
monotone cumulatives provides an independent variational oracle, and for
three or more layers only such oracles exist here.

`s2` and `s2_oracle` share one prelude (`_admissible`) and read a pair
once, through its merged grid (`merge_pair`): domination and the plateaus
are cell-by-cell comparisons there, the off-plateau term is a sum over
its cells, and each plateau comes with the cumulative both profiles share
along it (`pair_plateaus`), in the pair's ints.  A plateau term of `s2`
is a sum over the hull segments of that cumulative's concave envelope,
which RateResult keeps (a density is built only when read); `s2_oracle`
runs its DP on the same cumulative.

Both minimizers of the contraction identities are collapses: of the
constant profile onto the total profile, and of the mirrored first layer
onto a constant.  The rate's unique zero is the constant pair.  They,
like the quantized routes below, read only the measure that
collapse.collapse_measure returns, never its flux profile.

The quantized three-layer routes draw every layer under the last from one
search, _preimages, and differ only in how they charge the first layer:
sk_oracle through the chosen middle layer, s3_recursive through s2.  A
collapse keeps psi's density where the flux J is zero, so a candidate is
pinned to the target's quanta on each cell where the target and every
layer under it are constant and differ.  There J is zero, so the queue is
empty at the cell's start and the candidate no heavier than the first
layer under.  Where that layer is constant on every cell, the queue is
queue_collapse on cell quanta, and its kept quanta name the collapse by
an int cell code (_cell_code): a cell keeping k of psi's a quanta onto b
has density k throughout when k is a or b, else b up to (k - a) / (b - a)
and a after.  Each distinct code is collapsed once, which still decides
membership, so the results are those of the unpruned search.

All cell data stays rational; floating point enters through log only.
The kernel takes its argument as an int ratio and divides ints, which
rounds as Fraction does; kernel integrals run on the ints of a measure,
a merged pair or an envelope, and the plateau DP on int value levels over
one denominator, pricing each distinct rise of a segment once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .collapse import CollapseError, collapse_measure, queue_collapse
from .lattice import compositions
from .measures import (
    ONE,
    CumulativeFunction,
    PlateauDecomposition,
    TorusMeasure,
    concave_envelope,
    envelope_density,
    frac,
    merge_pair,
    pair_plateaus,
)

INF = math.inf
# uniform value levels per position added to the chords in _plateau_dp_min
DP_EXTRA_LEVELS = 16
# values within this distance of the best count as near-minimizers in sk_oracle
TIE_TOL = 1e-9
# ring sites one ldp_decay_exact call may sum over its sizes.  Its
# binomials cost about N^1.8 and are largest at mass 1/2: one size at this
# cap takes 3.4 s with one bin at density 1/2 and 2.7 s with two, and one
# of 10^6 sites 12 s (2 vCPU, Python 3.11), so an admitted call ends within
# a few seconds
MAX_DECAY_SITES = 5 * 10**5


@dataclass(frozen=True)
class EntropyKernel:
    """Relative-entropy integrand for one family of dynamics.

    Exclusion ("tasep"): x log(x/m) + (1-x) log((1-x)/(1-m)) on [0, 1],
    nonnegative with a unique zero at m.  Continuous points ("had"):
    x log(x/m) on [0, inf), negative on (0, m); its integral over a
    mass-m profile is still nonnegative with equality only at the
    constant profile.
    """

    family: str
    m: Fraction

    def __post_init__(self):
        m = frac(self.m)
        object.__setattr__(self, "m", m)
        if self.family == "tasep":
            if not (0 < m < 1):
                raise ValueError("exclusion kernel needs 0 < m < 1")
        elif self.family == "had":
            if not m > 0:
                raise ValueError("point kernel needs m > 0")
        else:
            raise ValueError("family must be 'tasep' or 'had'")

    def __call__(self, x) -> float:
        return self.at_ratio(*frac(x).as_integer_ratio())

    def at_ratio(self, n: int, d: int) -> float:
        """The kernel at x = n / d, for ints n and d > 0.

        Each ratio is an int true division, which rounds correctly as
        Fraction.__float__ does, so x, x/m, 1 - x and (1 - x)/(1 - m) are
        the doubles of the exact rationals whatever the form of n / d.
        """
        mn, md = self.m.as_integer_ratio()
        if self.family == "tasep":
            if n < 0 or n > d:
                return INF
            out = 0.0
            if n > 0:
                out += n / d * math.log(n * md / (d * mn))
            if n < d:
                out += (d - n) / d * math.log((d - n) * md / (d * (md - mn)))
            return out
        if n < 0:
            return INF
        if n == 0:
            return 0.0
        return n / d * math.log(n * md / (d * mn))


def _domain_ok(rho: TorusMeasure, m: Fraction, family: str) -> bool:
    # no atoms, the right mass, and densities at most 1 for exclusion
    return (
        rho.is_absolutely_continuous
        and rho.total_mass == m
        and not (family == "tasep" and max(rho.dens_nums) > rho.dens_den)
    )


def _kernel_integral(kernel: EntropyKernel, cells, length_den: int, dens_den: int) -> float:
    """Sum of length * kernel(density) over cells given as int pairs
    (n, d): a cell n / length_den long with density d / dens_den."""
    return sum((n / length_den * kernel.at_ratio(d, dens_den) for n, d in cells), 0.0)


def _integrate_kernel(rho: TorusMeasure, kernel: EntropyKernel) -> float:
    """Kernel integral of rho's density, on its stored ints."""
    return _kernel_integral(kernel, zip(rho.lens, rho.dens_nums), rho.grid, rho.dens_den)


def _envelope_integral(env: CumulativeFunction, kernel: EntropyKernel) -> float:
    """Kernel integral of the slopes of a piecewise-linear cumulative, on
    its ints: a segment dt / len_den long rising dv / mass_den has slope
    dv * len_den / (dt * mass_den)."""
    T, V = env.len_den, env.mass_den
    segs = zip(env.offs, env.offs[1:], env.vals, env.vals[1:])
    return sum(
        ((t1 - t0) / T * kernel.at_ratio((v1 - v0) * T, (t1 - t0) * V) for t0, t1, v0, v1 in segs),
        0.0,
    )


def s1(rho: TorusMeasure, kernel: EntropyKernel) -> float:
    """One-layer rate: integral of the kernel over the density, infinite
    off the admissible class (wrong mass, atoms, or excluded density)."""
    if not _domain_ok(rho, kernel.m, kernel.family):
        return INF
    return _integrate_kernel(rho, kernel)


@dataclass(frozen=True)
class RateResult:
    """Two-layer rate value with the certificates used to compute it: the
    plateaus and, on each, the concave envelope of its cumulative."""

    value: float
    exact_zero: bool
    plateau: PlateauDecomposition | None
    envelopes: tuple[CumulativeFunction, ...]
    complement_integral: float
    plateau_integrals: tuple[float, ...]
    second_layer_integral: float

    @property
    def finite(self) -> bool:
        return self.plateau is not None

    @property
    def diagonal(self) -> bool:
        return self.plateau is not None and self.plateau.full_torus

    @property
    def envelope_densities(self) -> tuple[TorusMeasure, ...]:
        """Each plateau's envelope as a density on the torus, built on read."""
        return tuple([envelope_density(env) for env in self.envelopes])


def _admissible(rho1: TorusMeasure, rho2: TorusMeasure, m1, m2, family: str):
    """The prelude s2 and s2_oracle share: None off the ordered admissible
    pairs, else the merged pair, both layers' kernels and the first layer's
    kernel integral over the merged cells off the plateaus.  Domination
    with equal masses leaves only the diagonal, which has no such cell."""
    m1, m2 = frac(m1), frac(m2)
    if not (_domain_ok(rho1, m1, family) and _domain_ok(rho2, m2, family)):
        return None
    pair = merge_pair(rho1, rho2)
    if not all(x <= y for x, y in zip(pair.dens1, pair.dens2)):
        return None
    k1, k2 = EntropyKernel(family, m1), EntropyKernel(family, m2)
    off = [(n, x) for n, x, y in zip(pair.lens, pair.dens1, pair.dens2) if x != y]
    return pair, k1, k2, _kernel_integral(k1, off, pair.grid_den, pair.mass_den // pair.grid_den)


def s2(
    rho1: TorusMeasure,
    rho2: TorusMeasure,
    m1,
    m2,
    family: str = "tasep",
) -> RateResult:
    """Closed-form two-layer rate functional.

    Infinite off ordered admissible pairs.  For equal masses only the
    diagonal is admissible and the rate is the one-layer integral.
    """
    admissible = _admissible(rho1, rho2, m1, m2, family)
    if admissible is None:
        return RateResult(INF, False, None, (), 0.0, (), 0.0)
    pair, k1, k2, first = admissible
    # the rate's unique zero is the constant pair: these atomless layers of
    # masses m1, m2 are constant exactly when their merged grid is one point
    exact_zero = len(pair.nums) == 1
    plateau = pair_plateaus(pair)
    if plateau.full_torus and k1.m != k2.m:
        raise RuntimeError("equal densities a.e. with distinct masses")
    envelopes = tuple([concave_envelope(F) for F in plateau.cumulatives])
    plateau_terms = tuple(_envelope_integral(env, k1) for env in envelopes)
    second = _integrate_kernel(rho2, k2)
    return RateResult(
        value=first + sum(plateau_terms) + second,
        exact_zero=exact_zero,
        plateau=plateau,
        envelopes=envelopes,
        complement_integral=first,
        plateau_integrals=plateau_terms,
        second_layer_integral=second,
    )


# ---------------------------------------------------------------------------
# the variational oracle
# ---------------------------------------------------------------------------


def _plateau_dp_min(F: CumulativeFunction, kernel: EntropyKernel) -> float:
    """Minimal kernel integral over monotone piecewise-linear cumulatives
    that dominate F, start at 0 and end at F's final value.

    Value levels per position are all chords of F's knots plus a uniform
    grid, so the set is closed under the optimum; slopes outside the
    admissible range are priced at infinity by the kernel itself (above 1
    for the exclusion family).

    Everything runs on F's ints: knot positions over P, its len_den, and
    levels over D = V * L, with V its mass_den and L the lcm of
    DP_EXTRA_LEVELS and every knot-position gap, so every chord and
    uniform level is an int.  A step of rise r over a segment of s
    units of 1/P has slope r * P / (D * s); its cost is priced once per
    distinct rise and segment.
    """
    P, pos, V, vals = F.len_den, F.offs, F.mass_den, F.vals
    n = len(pos) - 1
    L = math.lcm(DP_EXTRA_LEVELS, *[pos[b] - pos[a] for b in range(n + 1) for a in range(b)])
    D = V * L
    fvals = [v * L for v in vals]
    T = fvals[n]
    levels: list[list[int]] = []
    for j in range(n + 1):
        here = {fvals[j]}
        for a in range(j + 1):
            for b in range(j, n + 1):
                if pos[a] == pos[b]:
                    continue
                gap = pos[b] - pos[a]
                chord = fvals[a] + (fvals[b] - fvals[a]) // gap * (pos[j] - pos[a])
                if fvals[j] <= chord <= T:
                    here.add(chord)
        if T > fvals[j]:
            step = (T - fvals[j]) // DP_EXTRA_LEVELS
            here.update(fvals[j] + step * l for l in range(DP_EXTRA_LEVELS + 1))
        levels.append(sorted(here))
    levels[0] = [0]
    levels[n] = [T]
    dp = {0: 0.0}
    for j in range(n):
        seg = pos[j + 1] - pos[j]
        width, run = seg / P, D * seg
        priced: dict[int, float] = {}
        nxt: dict[int, float] = {}
        for v, cost in dp.items():
            for w in levels[j + 1]:
                if w < v:
                    continue
                rise = w - v
                step_cost = priced.get(rise)
                if step_cost is None:
                    step_cost = priced[rise] = width * kernel.at_ratio(rise * P, run)
                c = cost + step_cost
                if c < nxt.get(w, INF):
                    nxt[w] = c
        dp = nxt
    return dp.get(T, INF)


def s2_oracle(
    rho1: TorusMeasure,
    rho2: TorusMeasure,
    m1,
    m2,
    family: str = "tasep",
) -> float:
    """Variational two-layer rate: minimize the product-law integral over
    the preimage of the pair, parameterized by the plateau cumulatives.

    Independent of the closed form: the per-plateau minimum is found by
    dynamic programming, not by an envelope construction.
    """
    admissible = _admissible(rho1, rho2, m1, m2, family)
    if admissible is None:
        return INF
    pair, k1, k2, first = admissible
    total = _integrate_kernel(rho2, k2)
    total += first
    for F in pair_plateaus(pair).cumulatives:
        total += _plateau_dp_min(F, k1)
    return total


# ---------------------------------------------------------------------------
# explicit minimizers of the contraction identities
# ---------------------------------------------------------------------------


def minimizer_rho1(rho2: TorusMeasure, m1) -> TorusMeasure:
    """First-layer profile of least two-layer rate at a given total profile:
    the collapse of the constant profile of mass m1 onto rho2."""
    m1 = frac(m1)
    if not rho2.is_absolutely_continuous:
        raise ValueError("total profile must be a density")
    if m1 > rho2.total_mass:
        raise ValueError("first-layer mass exceeds the total mass")
    return collapse_measure(TorusMeasure.constant(m1), rho2)[0]


def _mirror(rho: TorusMeasure) -> TorusMeasure:
    """The density u -> rho(-u): the cell [b_i, b_{i+1}) becomes
    (-b_{i+1}, -b_i]."""
    edges = [*rho.bp_nums[1:], rho.grid]
    return TorusMeasure.on_grid(
        rho.grid, [rho.grid - e for e in reversed(edges)], rho.dens_den, rho.dens_nums[::-1]
    )


def minimizer_rho2(rho1: TorusMeasure, m2) -> TorusMeasure:
    """Total profile of least two-layer rate at a given first-layer profile.

    Like minimizer_rho1, a collapse, here run right to left: rho1's excess
    over m2 queues leftward from each excursion above m2 until m2 - rho1
    drains it.  The collapse of the mirrored rho1 onto the constant m2
    holds m2 where that queue is positive and rho1 elsewhere; the minimizer
    takes the other value on each cell, so it equals rho1 on the stretches
    of the queue and m2 off them.
    """
    m2 = frac(m2)
    if not rho1.is_absolutely_continuous:
        raise ValueError("first-layer profile must be a density")
    if not rho1.total_mass < m2:
        raise ValueError("total mass must strictly exceed the first-layer mass")
    kept = collapse_measure(_mirror(rho1), TorusMeasure.constant(m2))[0]
    if kept.atoms:
        raise RuntimeError("collapse of a density onto a constant deposited atoms")
    pair = merge_pair(rho1, _mirror(kept))
    # rho1 - kept + m2 on every merged cell, over per_len * m2's denominator
    per_len, (n2, d2) = pair.mass_den // pair.grid_den, m2.as_integer_ratio()
    dens = [(d1 - k) * d2 + n2 * per_len for d1, k in zip(pair.dens1, pair.dens2)]
    out = TorusMeasure.on_grid(pair.grid_den, pair.nums, per_len * d2, dens)
    if out.total_mass != m2:
        raise RuntimeError("constructed total profile has the wrong mass")
    return out


def contraction_identity_check(
    rho: TorusMeasure,
    family: str = "tasep",
    m_first=None,
    m_total=None,
) -> dict[str, float]:
    """Residuals of the two contraction identities at a fixed profile.

    With rho as the total profile and a smaller mass m_first, the optimal
    first layer achieves the one-layer rate of rho; with rho as the first
    layer and a larger mass m_total, the optimal total profile achieves
    the one-layer rate of rho.
    """
    out: dict[str, float] = {}
    mass = rho.total_mass
    if m_first is not None:
        best1 = minimizer_rho1(rho, m_first)
        r = s2(best1, rho, m_first, mass, family)
        out["first_layer_residual"] = abs(r.value - s1(rho, EntropyKernel(family, mass)))
    if m_total is not None:
        best2 = minimizer_rho2(rho, m_total)
        r = s2(rho, best2, mass, m_total, family)
        out["total_layer_residual"] = abs(r.value - s1(rho, EntropyKernel(family, mass)))
    return out


# ---------------------------------------------------------------------------
# the non-convexity certificate
# ---------------------------------------------------------------------------


def nonconvexity_certificate(cs: Sequence = (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))):
    """Signed convexity margins of the two-layer rate along a segment where
    it fails to be convex (first profiles an indicator vs a half-density,
    common total profile), with the exact limiting defect.
    """
    m1, m2 = Fraction(1, 4), Fraction(3, 4)
    rho1 = TorusMeasure.indicator(Fraction(1, 4), Fraction(1, 2))
    rho1s = TorusMeasure.indicator(Fraction(1, 2), ONE, Fraction(1, 2))
    rho2 = TorusMeasure.indicator(Fraction(1, 4), ONE)
    a = s2(rho1, rho2, m1, m2, "tasep").value
    b = s2(rho1s, rho2, m1, m2, "tasep").value
    margins = {}
    for c in cs:
        c = frac(c)
        mix1 = rho1.scale(c).add(rho1s.scale(1 - c))
        mix = s2(mix1, rho2, m1, m2, "tasep").value
        margins[c] = float(c) * a + float(1 - c) * b - mix
    k1 = EntropyKernel("tasep", m1)
    limit = Fraction(1, 2) * Fraction(k1(Fraction(1, 2))) - (
        Fraction(1, 4) * Fraction(k1(1)) + Fraction(1, 4) * Fraction(k1(0))
    )
    return {
        "margins": margins,
        "most_negative": min(margins.values()),
        "limit_defect": float(limit),
    }


# ---------------------------------------------------------------------------
# multilayer oracle on a quantized grid
# ---------------------------------------------------------------------------


def lattice_measures(cells: int, units: int, quantum: Fraction, family: str):
    """All piecewise-constant measures on `cells` uniform cells whose cell
    masses are multiples of the quantum summing to units * quantum; the
    exclusion family caps densities at one."""
    return (_lattice_measure(c, quantum) for c in _lattice(cells, units, quantum, family))


def _lattice(cells: int, units: int, quantum: Fraction, family: str) -> Iterator[tuple]:
    """The cell quanta of lattice_measures' profiles, in its order, made
    one at a time: a pool searched once is never held whole."""
    qn, qd = frac(quantum).as_integer_ratio()
    cap = qd // (cells * qn) if family == "tasep" else None  # densities at most 1
    return compositions(units, cells, cap)


def _lattice_measure(combo: tuple, quantum) -> TorusMeasure:
    """The measure on len(combo) uniform cells holding combo's counts of the quantum."""
    qn, qd = frac(quantum).as_integer_ratio()
    cells = len(combo)
    # a cell holding c quanta has density c * qn * cells / qd
    return TorusMeasure.on_grid(cells, range(cells), qd, [c * qn * cells for c in combo])


def _cell_quanta(rho: TorusMeasure, cells: int, quantum: Fraction) -> list:
    """rho's mass on each of `cells` uniform cells, in quanta (an int when
    whole, else a Fraction), where rho's density is constant on the cell;
    None on a cell that a breakpoint of rho cuts."""
    qn, qd = frac(quantum).as_integer_ratio()
    ends = [*rho.bp_nums[1:], rho.grid]
    out = []
    for c in range(cells):
        # the last breakpoint b / grid <= c / cells, and the next edge
        i = bisect.bisect_right(rho.bp_nums, c * rho.grid // cells) - 1
        if ends[i] * cells < (c + 1) * rho.grid:
            out.append(None)
            continue
        q = Fraction(rho.dens_nums[i] * qd, rho.dens_den * qn * cells)
        out.append(q.numerator if q.denominator == 1 else q)
    return out


def _cell_code(psi: tuple, under: tuple, kept: list) -> tuple:
    """The cell code of psi collapsed onto under, both cell quanta."""
    return tuple([k if k == a or k == b else (a, b, k) for a, b, k in zip(psi, under, kept)])


def _quantized_masses(
    rhos: Sequence[TorusMeasure], quantum, cells: int
) -> tuple[list[Fraction], list[int]]:
    """Layer masses and their counts of the quantum, for the oracles that
    enumerate quantized profiles on at most 12 uniform cells.  A layer with
    atoms has an infinite rate, which no quantized profile charges, so it
    is refused; the masses must be nondecreasing, as every collapse and the
    queue rule need."""
    if cells < 1:
        raise ValueError(f"oracle grids need at least one cell, not {cells}")
    if cells > 12:
        raise ValueError("oracle grids are capped at 12 cells")
    quantum = frac(quantum)
    if quantum <= 0:
        raise ValueError(f"the quantum must be positive, not {quantum}")
    for i, r in enumerate(rhos):
        if not r.is_absolutely_continuous:
            raise ValueError(f"layer rhos[{i}] has atoms: the quantized oracles take densities only")
    masses = [r.total_mass for r in rhos]
    units = []
    for m in masses:
        u = m / quantum
        if u.denominator != 1:
            raise ValueError("layer masses must be multiples of the quantum")
        units.append(int(u))
    if any(a > b for a, b in zip(masses, masses[1:])):
        raise CollapseError("masses must be nondecreasing")
    return masses, units


def _preimages(target, unders: Sequence[TorusMeasure], pool, cells: int, quantum, hits: dict) -> list:
    """The cell quanta of `pool`, in its order, whose profiles land on
    `target` when collapsed through each layer of `unders` in turn.

    Candidates that break the pins, or the queue rule where unders[0] is
    constant on every cell (module docstring), are skipped uncollapsed.
    `hits` records, per cell code of the collapse onto unders[0] (per
    candidate where there is no code), whether it lands on the target; a
    code fixes that collapse whatever unders[0] is, so calls with the same
    target and later layers may share one `hits`."""
    want, *quanta = [_cell_quanta(r, cells, quantum) for r in (target, *unders)]
    # a cell where the target and every layer under it are constant and differ
    cols = enumerate(zip(want, *quanta))
    pins = [(c, t) for c, (t, *us) in cols if None not in us and t not in (None, *us)]
    below = quanta[0]
    out = []
    for combo in pool:
        if any(combo[c] != t for c, t in pins):
            continue
        key = combo
        if None not in below:
            # J at cell c's start is the queue length after cell c - 1
            kept, lengths = queue_collapse(combo, below)
            if any(lengths[c - 1] or combo[c] > below[c] for c, _ in pins):
                continue
            key = _cell_code(combo, below, kept)
        hit = hits.get(key)
        if hit is None:
            psi = _lattice_measure(combo, quantum)
            for under in unders:
                psi = collapse_measure(psi, under)[0]
            hit = hits[key] = psi == target
        if hit:
            out.append(combo)
    return out


def sk_oracle(rhos: Sequence[TorusMeasure], family: str, quantum, cells: int) -> dict:
    """Brute-force multilayer rate: minimize the product-law integral over
    quantized tuples whose k-fold collapse reproduces the target tuple.

    Exhaustive for two or three layers on coarse grids.  The layer under
    the last comes from its pinned preimages, as in s3_recursive; the
    first of three layers from its pinned preimages through the chosen
    middle layer, then the last.  Reports the best value and how many
    near-minimizers were seen (the preimage set need not be convex, so
    uniqueness is never claimed).  Layer masses must be nondecreasing.
    """
    k = len(rhos)
    if k not in (2, 3):
        raise ValueError("oracle supports two or three layers")
    masses, units = _quantized_masses(rhos, quantum, cells)
    kernels = [EntropyKernel(family, m) for m in masses]
    last = rhos[-1]
    base = _integrate_kernel(last, kernels[-1])
    lattice = _lattice(cells, units[-2], quantum, family)
    middle = _preimages(rhos[-2], [last], lattice, cells, quantum, {})
    if k == 2:
        values = [base + _integrate_kernel(_lattice_measure(c, quantum), kernels[0]) for c in middle]
    else:
        pool = list(_lattice(cells, units[0], quantum, family))
        # a candidate's charge, made once, when some middle layer keeps it
        charges: dict[tuple, float] = {}
        # one memo for every middle layer: many candidates share an
        # intermediate, and each distinct one is collapsed once
        hits: dict[tuple, bool] = {}
        values = []
        for chosen in middle:
            phi = _lattice_measure(chosen, quantum)
            cost = base + _integrate_kernel(phi, kernels[1])
            for combo in _preimages(rhos[0], [phi, last], pool, cells, quantum, hits):
                if combo not in charges:
                    charges[combo] = _integrate_kernel(_lattice_measure(combo, quantum), kernels[0])
                values.append(cost + charges[combo])
    best, near = INF, 0
    for val in values:
        if val < best - TIE_TOL:
            best, near = val, 1
        elif abs(val - best) <= TIE_TOL:
            best, near = min(best, val), near + 1
    return {"value": best, "near_minimizers": near, "feasible_count": len(values)}


def s3_recursive(rhos: Sequence[TorusMeasure], family: str, quantum, cells: int) -> dict:
    """Three-layer rate through the recursion: charge the last layer
    directly, then minimize s2 over quantized pairs whose layers collapse
    onto the first two under the last, each drawn from its pinned
    preimage pool (the middle one as in sk_oracle)."""
    if len(rhos) != 3:
        raise ValueError("recursion route needs exactly three layers")
    masses, units = _quantized_masses(rhos, quantum, cells)
    base = _integrate_kernel(rhos[2], EntropyKernel(family, masses[2]))

    def pool(i: int) -> list:
        lattice = _lattice(cells, units[i], quantum, family)
        combos = _preimages(rhos[i], [rhos[2]], lattice, cells, quantum, {})
        return [_lattice_measure(c, quantum) for c in combos]

    phi1_pool = pool(0)
    best, feasible = INF, 0
    for phi2 in pool(1):
        for phi1 in phi1_pool:
            res = s2(phi1, phi2, masses[0], masses[1], family)
            if res.finite:
                feasible += 1
                best = min(best, base + res.value)
    return {"value": best, "feasible_count": feasible}


# ---------------------------------------------------------------------------
# exact combinatorial decay rates
# ---------------------------------------------------------------------------


def check_decay_profile(dens: Sequence[Fraction], sizes: Sequence[int]) -> None:
    """Refuse, before any binomial is computed, what ldp_decay_exact cannot
    take; the one-layer rate at the mean density exists only strictly
    between 0 and 1, and every bin must hold whole sites and particles."""
    B = len(dens)
    if B == 0:
        raise ValueError("need at least one bin density")
    if any(d < 0 or d > 1 for d in dens):
        raise ValueError("bin densities must lie in [0, 1]")
    if min(sizes, default=1) < 1:
        raise ValueError(f"ring size {min(sizes)} must be at least 1")
    if sum(sizes) > MAX_DECAY_SITES:
        raise ValueError(f"ring sizes summing to {sum(sizes)} exceed the cap of {MAX_DECAY_SITES} sites")
    if not 0 < sum(dens) / B < 1:
        raise ValueError(f"mean density {sum(dens) / B} must lie strictly between 0 and 1")
    for n in sizes:
        if n % B:
            raise ValueError(f"bin count {B} must divide the ring size {n}")
        if any((d * (n // B)).denominator != 1 for d in dens):
            raise ValueError(f"profile not realizable at size {n}")


def ldp_decay_exact(bin_densities: Sequence, sizes: Sequence[int]) -> list[dict]:
    """Exact decay of the probability that uniform sampling produces a
    coarse profile, against the one-layer rate at the profile's own mass.

    The profile is constant on B equal bins, and its mass is their mean
    density; at ring size N the bin counts must be integers.  Probabilities
    are exact binomial ratios; the decay is -log(P)/N and the reported
    bound dominates the Stirling error.  What check_decay_profile refuses
    is refused before any binomial is computed.
    """
    dens = [frac(d) for d in bin_densities]
    check_decay_profile(dens, sizes)
    B = len(dens)
    kern = EntropyKernel("tasep", sum(dens) / B)
    s1_val = sum(float(Fraction(1, B)) * kern(d) for d in dens)
    rows = []
    for n in sizes:
        nb = n // B
        counts = [int(d * nb) for d in dens]
        log_p = sum(math.log(math.comb(nb, j)) for j in counts) - math.log(math.comb(n, sum(counts)))
        decay, bound = -log_p / n, B * (1 + math.log(n + 1)) / n
        rows.append({"n": n, "decay": decay, "rate": s1_val, "gap": decay - s1_val, "bound": bound})
    return rows
