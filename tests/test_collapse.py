import bisect
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from toruscollapse.collapse import (
    CollapseError,
    JInterval,
    atomic_measure,
    collapse_discrete,
    collapse_discrete_algorithmic,
    collapse_k,
    collapse_measure,
    collapse_measure_representation,
    collapse_points,
    commutation_check,
    discrete_flux_direct,
    flux_values_direct,
    queue_collapse,
)
from toruscollapse.lattice import OrderedTuple, PointConfig, TorusConfig
from toruscollapse.measures import TorusMeasure, cyc_len, cyclic_runs, refined_cells

from oracles import in_interval, interval_mass, interval_span, left_limit

F = Fraction


def cfg(*sites, n):
    return TorusConfig.from_sites(n, sites)


class TestDiscrete:
    def test_already_dominated_is_fixed(self):
        e1 = cfg(1, 4, n=6)
        e2 = cfg(1, 2, 4, n=6)
        assert collapse_discrete_algorithmic(e1, e2) == e1
        assert collapse_discrete(e1, e2) == e1
        assert all(v == 0 for v in queue_collapse(e1.occupied, e2.occupied)[1])

    def test_worked_example(self):
        e1 = cfg(0, 3, n=6)
        e2 = cfg(1, 2, 5, n=6)
        assert collapse_discrete_algorithmic(e1, e2).sites() == (1, 5)
        assert collapse_discrete(e1, e2).sites() == (1, 5)
        J = queue_collapse(e1.occupied, e2.occupied)[1]
        assert J[0] == 1 and J[1] == 0

    def test_wraparound_move(self):
        assert collapse_discrete_algorithmic(cfg(2, n=4), cfg(0, 1, n=4)).sites() == (0,)

    def test_rejects_more_particles(self):
        with pytest.raises(CollapseError):
            collapse_discrete_algorithmic(cfg(0, 1, n=4), cfg(2, n=4))

    def test_result_dominated_and_mass_preserved(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(2, 20)
            m2 = rng.randint(0, n)
            m1 = rng.randint(0, m2)
            e1 = TorusConfig.from_sites(n, rng.sample(range(n), m1))
            e2 = TorusConfig.from_sites(n, rng.sample(range(n), m2))
            res = collapse_discrete_algorithmic(e1, e2)
            assert res.count == m1
            OrderedTuple([res, e2])  # raises unless res <= e2

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_flux_routes_agree(self, data):
        n = data.draw(st.integers(2, 16))
        bits1 = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        bits2 = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        e1, e2 = TorusConfig(bits1), TorusConfig(bits2)
        if e1.count > e2.count:
            with pytest.raises(CollapseError):
                collapse_discrete(e1, e2)
            return
        assert tuple(queue_collapse(e1.occupied, e2.occupied)[1]) == discrete_flux_direct(e1, e2)
        assert collapse_discrete(e1, e2) == collapse_discrete_algorithmic(e1, e2)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_queue_kernel_matches_oracles(self, data):
        n = data.draw(st.integers(1, 40))
        top = data.draw(st.sampled_from([1, 3]))
        second = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        first = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        # keep the first layer no heavier than the second
        extra = sum(first) - sum(second)
        for x in range(n):
            cut = max(0, min(first[x], extra))
            first[x], extra = first[x] - cut, extra - cut
        kept, lengths = queue_collapse(first, second)
        if top == 1:
            # on 0/1 sites a step is one ring site
            e1, e2 = TorusConfig(first), TorusConfig(second)
            assert TorusConfig(kept) == collapse_discrete_algorithmic(e1, e2)
            assert tuple(lengths) == discrete_flux_direct(e1, e2)
        # the unit expansion: a step (a, b) is a first-only sites, then b
        # second-only sites; it keeps what the ring collapse keeps on its
        # block, and its length is the flux at the block's last site (an
        # empty block's at the last site before it, read cyclically)
        bits1 = [u for a, b in zip(first, second) for u in [1] * a + [0] * b]
        bits2 = [u for a, b in zip(first, second) for u in [0] * a + [1] * b]
        if not bits2:
            assert kept == lengths == [0] * n
            return
        e1, e2 = TorusConfig(bits1), TorusConfig(bits2)
        res, flux = collapse_discrete_algorithmic(e1, e2).occupied, discrete_flux_direct(e1, e2)
        ends = list(itertools.accumulate(a + b for a, b in zip(first, second)))
        blocks = [(end - a - b, end) for a, b, end in zip(first, second, ends)]
        assert kept == [sum(res[lo:hi]) for lo, hi in blocks]
        assert lengths == [flux[hi - 1] for _, hi in blocks]

    @pytest.mark.parametrize("first, second", [([1, 0, 1], [1, 1]), ([1], [0, 1])])
    def test_queue_refuses_sequences_of_unequal_length(self, first, second):
        with pytest.raises(ValueError, match="^sequences of unequal lengths"):
            queue_collapse(first, second)

    def test_order_independence(self):
        rng = random.Random(4)
        e1 = cfg(0, 2, 5, 9, n=12)
        e2 = cfg(1, 3, 4, 6, 10, n=12)
        ref = collapse_discrete_algorithmic(e1, e2)
        for _ in range(20):
            order = list(e1.sites())
            rng.shuffle(order)
            assert collapse_discrete_algorithmic(e1, e2, order) == ref


class TestPoints:
    def test_subset_fixed(self):
        x = PointConfig([F(1, 4)])
        y = PointConfig([F(1, 4), F(1, 2)])
        assert collapse_points(x, y) == x

    def test_worked_example(self):
        x = PointConfig([F(3, 10)])
        y = PointConfig([F(1, 10), F(2, 5)])
        assert collapse_points(x, y) == PointConfig([F(2, 5)])

    def test_matches_measure_collapse_on_atoms(self):
        rng = random.Random(8)
        for _ in range(60):
            n2 = rng.randint(1, 9)
            n1 = rng.randint(0, n2)
            ypts, xpts = set(), set()
            while len(ypts) < n2:
                ypts.add(F(rng.randint(0, 53), 54))
            while len(xpts) < n1:
                xpts.add(F(rng.randint(0, 53), 54))
            x, y = PointConfig(sorted(xpts)), PointConfig(sorted(ypts))
            cp = collapse_points(x, y)
            cm, _ = collapse_measure(
                TorusMeasure.from_atoms(x.points, 1), TorusMeasure.from_atoms(y.points, 1)
            )
            assert cm == TorusMeasure.from_atoms(cp.points, 1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_measure_collapse_property(self, data):
        # a coarse grid makes shared points and ties between x and y common
        grid = data.draw(st.sampled_from([7, 30, 2**20]))
        ys = data.draw(st.sets(st.integers(0, grid - 1), max_size=12))
        xs = data.draw(st.sets(st.integers(0, grid - 1), max_size=len(ys)))
        x = PointConfig([F(v, grid) for v in xs])
        y = PointConfig([F(v, grid) for v in ys])
        cm, _ = collapse_measure(
            TorusMeasure.from_atoms(x.points, 1), TorusMeasure.from_atoms(y.points, 1)
        )
        assert TorusMeasure.from_atoms(collapse_points(x, y).points, 1) == cm

    def test_counting_ledger_with_left_limits(self):
        x = PointConfig([F(1, 10), F(3, 10)])
        y = PointConfig([F(2, 10), F(7, 10), F(9, 10)])
        res = collapse_points(x, y)
        _, prof = collapse_measure(atomic_measure(x, 1), atomic_measure(y, 1))

        def count(pts, u, v):
            return sum(1 for p in pts if cyc_len(u, p) <= cyc_len(u, v))

        for u in [F(i, 17) for i in range(17)]:
            for v in [F(i, 19) for i in range(19)]:
                if u == v:
                    continue
                assert count(res.points, u, v) == count(x.points, u, v) + left_limit(
                    prof, u
                ) - prof.at(v)


def delta(*positions, mass=1):
    return TorusMeasure.from_atoms([F(p) for p in positions], mass)


class TestMeasure:
    def test_atom_onto_atoms(self):
        c, _ = collapse_measure(delta(F(1, 2)), delta(F(1, 2), F(3, 4)))
        assert c == delta(F(1, 2))

    def test_shifted_atom_lands_right(self):
        eps = F(1, 50)
        c, prof = collapse_measure(delta(F(1, 2) + eps), delta(F(1, 2), F(3, 4)))
        assert c == delta(F(3, 4))
        (iv,) = prof.intervals
        assert (iv.lo, iv.hi, iv.left_closed, iv.mass_delta) == (F(1, 2) + eps, F(3, 4), True, 1)

    def test_ordered_ac_pair_fixed(self):
        r1 = TorusMeasure.indicator(F(1, 4), F(1, 2))
        r2 = TorusMeasure.indicator(F(1, 4), 1)
        c, prof = collapse_measure(r1, r2)
        assert c == r1 and prof.intervals == ()

    def test_ac_result_follows_density_rule(self):
        # mass moves right: the result takes the big measure's density on the
        # positive-flux set and the small one's elsewhere, with no atoms
        r1 = TorusMeasure.indicator(0, F(1, 4), 2)  # mass 1/2
        r2 = TorusMeasure.indicator(F(1, 2), 1, F(3, 2))  # mass 3/4
        c, prof = collapse_measure(r1, r2)
        assert c.is_absolutely_continuous
        for iv in prof.intervals:
            assert iv.mass_delta == 0
        assert c.total_mass == F(1, 2)
        OrderedTuple([c, r2])  # raises unless c <= r2

    def test_mass_ordering_required(self):
        with pytest.raises(CollapseError):
            collapse_measure(TorusMeasure.constant(1), TorusMeasure.constant(F(1, 2)))

    def test_equal_mass_full_flux_set(self):
        c, prof = collapse_measure(delta(F(1, 2)), TorusMeasure.constant(1))
        assert prof.full_torus
        assert c == TorusMeasure.constant(1)

    def test_random_invariants(self):
        rng = random.Random(21)
        for trial in range(150):
            r1 = _random_measure(rng)
            r2 = _random_measure(rng)
            if r1.total_mass > r2.total_mass:
                r1, r2 = r2, r1
            c, prof = collapse_measure(r1, r2)
            assert prof.values == flux_values_direct(r1, r2)
            assert c.total_mass == r1.total_mass
            OrderedTuple([c, r2])  # raises unless c <= r2
            grid = list(prof.positions)
            for a in grid:
                for b in grid:
                    assert interval_mass(c, a, b) == interval_mass(r1, a, b) + prof.at(a) - prof.at(b)
            if not prof.full_torus:
                assert collapse_measure_representation(r1, r2, prof) == c
                assert all(iv.mass_delta >= 0 for iv in prof.intervals)

    def test_almost_full_flux_set(self):
        # a density collapsing onto a single heavier atom: the positive set
        # is the whole circle minus the atom location, encoded as hi == lo
        r1 = TorusMeasure.constant(1)
        r2 = TorusMeasure.from_atoms([F(2, 5)], F(3, 2))
        c, prof = collapse_measure(r1, r2)
        assert c == TorusMeasure.from_atoms([F(2, 5)], 1)
        (iv,) = prof.intervals
        assert iv.lo == iv.hi == F(2, 5) and not iv.left_closed
        assert iv.mass_delta == 1
        assert collapse_measure_representation(r1, r2, prof) == c

    def test_flux_interval_boundary_types(self):
        # left-closed when the flux is positive at the left end (atom there),
        # left-open when it builds up from zero density excess
        eps = F(1, 50)
        _, prof = collapse_measure(delta(F(1, 2) + eps), delta(F(1, 2), F(3, 4)))
        assert prof.intervals[0].left_closed
        r1 = TorusMeasure.indicator(0, F(1, 4), 2)
        r2 = TorusMeasure.indicator(F(1, 2), 1, F(3, 2))
        _, prof = collapse_measure(r1, r2)
        assert any(not iv.left_closed for iv in prof.intervals)

    def test_intervals_are_where_the_flux_is_positive(self):
        # collapse_measure_representation reads {J > 0} off profile.at, and
        # CLI collapse prints profile.intervals: on seeded random pairs, a
        # quarter of them of equal masses, the two agree at every grid
        # point, interval end, refined-cell midpoint and interval middle,
        # and at a few random points
        rng = random.Random(30)
        almost_full = left_open = 0
        for trial in range(300):
            r1, r2 = _random_measure(rng), _random_measure(rng)
            if r1.total_mass > r2.total_mass:
                r1, r2 = r2, r1
            if trial % 4 == 0 and r2.total_mass:
                r2 = r2.scale(r1.total_mass / r2.total_mass)
            prof = collapse_measure(r1, r2)[1]
            ivs = prof.intervals
            almost_full += any(iv.lo == iv.hi for iv in ivs)
            left_open += any(not iv.left_closed for iv in ivs)
            cuts = [*prof.positions, *(p for iv in ivs for p in (iv.lo, iv.hi))]
            probes = cuts + [mid for _, _, mid in refined_cells(cuts)]
            probes += [iv.lo + interval_span(iv) / 2 for iv in ivs]
            probes += [F(rng.getrandbits(53), 2**53) for _ in range(4)]
            for u in probes:
                inside = prof.full_torus or any(in_interval(iv, u) for iv in ivs)
                assert (prof.at(u) > 0) == inside, (r1, r2, u)
        assert almost_full > 0 and left_open > 0


GRID = [F(i, 48) for i in range(48)]
MASSES = st.integers(1, 8).map(lambda m: F(m, 8))


@st.composite
def coinciding_pairs(draw):
    """An ordered pair of measures whose breakpoints and atoms sit on each
    other's breakpoints and atoms as well as on fresh grid points."""

    def measure(shared):
        sites = st.sampled_from(sorted(shared) + GRID) if shared else st.sampled_from(GRID)
        bps = sorted(draw(st.sets(sites, min_size=1, max_size=5)))
        dens = draw(st.lists(st.integers(0, 8), min_size=len(bps), max_size=len(bps)))
        atoms = draw(st.dictionaries(sites, MASSES, max_size=4))
        return TorusMeasure(bps, [F(d, 4) for d in dens], atoms.items())

    r1 = measure(set())
    r2 = measure({*r1.breakpoints, *(a.at for a in r1.atoms)})
    return (r1, r2) if r1.total_mass <= r2.total_mass else (r2, r1)


@st.composite
def equal_mass_pairs(draw):
    """A coinciding pair with the second measure scaled to the first's mass:
    the edge case, mass1 == mass2, of the argument that lap 1 of the fluid
    queue ends at its fixed point."""
    r1, r2 = draw(coinciding_pairs())
    if r2.total_mass == 0:
        return r1, r2
    return r1, r2.scale(r1.total_mass / r2.total_mass)


class TestMergedGridProperties:
    @given(coinciding_pairs())
    @settings(max_examples=300, deadline=None)
    def test_fast_flux_equals_direct(self, pair):
        assert collapse_measure(*pair)[1].values == flux_values_direct(*pair)

    @given(coinciding_pairs())
    @settings(max_examples=300, deadline=None)
    def test_collapse_conserves_dominates_and_matches_representation(self, pair):
        r1, r2 = pair
        c, prof = collapse_measure(r1, r2)
        assert c.total_mass == r1.total_mass
        OrderedTuple([c, r2])  # raises unless c <= r2
        if not prof.full_torus:
            assert collapse_measure_representation(r1, r2, prof) == c
            assert all(iv.mass_delta >= 0 for iv in prof.intervals)

    @given(equal_mass_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equal_masses(self, pair):
        r1, r2 = pair
        c, prof = collapse_measure(r1, r2)
        assert prof.values == flux_values_direct(r1, r2)
        assert c.total_mass == r1.total_mass
        OrderedTuple([c, r2])  # raises unless c <= r2
        if not prof.full_torus:
            assert collapse_measure_representation(r1, r2, prof) == c


def reference_fluid_queue(rho1, rho2):
    """The fluid queue in Fractions, on a grid merged by pointwise queries:
    the reference for the int queue of collapse_measure.  Returns the flux
    profile, as a record of its public fields in Fractions, and the
    collapsed measure."""
    if rho1.total_mass > rho2.total_mass:
        raise CollapseError("first measure has more mass")
    at1, at2 = dict(rho1.atoms), dict(rho2.atoms)
    grid = sorted({*rho1.breakpoints, *rho2.breakpoints, *at1, *at2})
    lens = [hi - lo for lo, hi in zip(grid, grid[1:] + [F(1)])]
    cells = [
        (g, n, rho1.density_at(g), rho2.density_at(g), at1.get(g, F(0)), at2.get(g, F(0)))
        for g, n in zip(grid, lens)
    ]
    q = F(0)
    for _, length, d1, d2, a1, a2 in cells:
        q = max(F(0), q + a1 - a2)
        q = max(F(0), q + (d1 - d2) * length)
    values, slopes, ends, tails, mask = [], [], [], [], []
    bps, dens, atoms = [], [], []
    for g, length, d1, d2, a1, a2 in cells:
        kept = min(a2, q + a1)
        assert kept >= 0
        if kept > 0:
            atoms.append((g, kept))
        q = max(F(0), q + a1 - a2)
        slope, edge = d1 - d2, g + length
        if q > 0 and slope < 0:
            end = min(g + q / (d2 - d1), edge)
        elif q > 0 or slope > 0:
            end = edge
        else:
            end = None
        at_edge = end == edge
        values.append(q)
        slopes.append(slope)
        bps.append(g)
        dens.append(d1 if end is None else d2)
        if end is not None and not at_edge:
            bps.append(end)
            dens.append(d1)
        ends.append(end)
        mask += [q > 0, end is not None, at_edge]
        q = max(F(0), q + slope * length)
        tails.append(q if at_edge else F(0))
    full = all(mask)
    intervals = []
    if not full:
        for start, length in cyclic_runs(mask):
            i, c = start // 3, (start + length - 1) % len(mask) // 3
            intervals.append(JInterval(grid[i], ends[c] % 1, start % 3 == 0, tails[c]))
    profile = SimpleNamespace(
        positions=tuple(grid),
        values=tuple(values),
        slopes=tuple(slopes),
        intervals=tuple(intervals),
        full_torus=full,
    )
    return profile, TorusMeasure(bps, dens, atoms)


def _fraction_on(denominators, lo=0):
    return st.sampled_from(denominators).flatmap(
        lambda d: st.integers(lo * d, d - 1).map(lambda n: F(n, d))
    )


# denominators that do not divide each other, so the grid and mass scales
# are true lcms and a slip in either shows
POSITIONS = _fraction_on([3, 7, 48, 2**53])
DENSITIES = st.sampled_from([1, 3, 4, 7]).flatmap(
    lambda d: st.integers(0, 2 * d).map(lambda n: F(n, d))
)
ATOM_MASSES = st.sampled_from([5, 6, 8]).flatmap(
    lambda d: st.integers(1, d).map(lambda n: F(n, d))
)


@st.composite
def off_grid_pairs(draw):
    """An ordered pair of measures with breakpoints, densities and atoms on
    mixed denominators, sharing some points; about a quarter of the pairs
    have equal masses."""

    def measure(shared):
        sites = st.one_of(st.sampled_from(sorted(shared)), POSITIONS) if shared else POSITIONS
        bps = sorted(draw(st.sets(sites, min_size=1, max_size=5)))
        dens = draw(st.lists(DENSITIES, min_size=len(bps), max_size=len(bps)))
        atoms = draw(st.dictionaries(sites, ATOM_MASSES, max_size=4))
        return TorusMeasure(bps, dens, atoms.items())

    r1 = measure(set())
    r2 = measure({*r1.breakpoints, *(a.at for a in r1.atoms)})
    r1, r2 = (r1, r2) if r1.total_mass <= r2.total_mass else (r2, r1)
    if r2.total_mass > 0 and draw(st.integers(0, 3)) == 0:
        r2 = r2.scale(r1.total_mass / r2.total_mass)
    return r1, r2


@st.composite
def plateau_pairs(draw):
    """A measure and itself plus a few pieces of density and atoms on mixed
    denominators: the densities agree off the pieces, so the pair has
    plateaus, and pieces wrap through 0 when their first breakpoint is not
    0."""
    r1, _ = draw(off_grid_pairs())
    bps = sorted(draw(st.sets(POSITIONS, min_size=1, max_size=4)))
    dens = draw(st.lists(st.one_of(st.just(F(0)), DENSITIES), min_size=len(bps), max_size=len(bps)))
    atoms = draw(st.dictionaries(POSITIONS, ATOM_MASSES, max_size=2))
    return r1, r1.add(TorusMeasure(bps, dens, atoms.items()))


def _fields(profile):
    names = ("positions", "values", "slopes", "intervals", "full_torus")
    return [(name, getattr(profile, name)) for name in names]


def reference_at(profile, v):
    """J(v) interpolated in Fractions from a profile's public fields."""
    v = F(v) % 1
    j = bisect.bisect_right(profile.positions, v) - 1
    if profile.positions[j] == v:
        return profile.values[j]
    return max(F(0), profile.values[j] + profile.slopes[j] * (v - profile.positions[j]))


# off-grid probes of J on denominators 3 and 2^53
OFF_GRID = [F(1, 3), F(2, 3)] + [F(n, 2**53) for n in (1, 2**52 + 1, 3 * 2**51 - 7, 2**53 - 1)]


def _types(values):
    return [type(v) for v in values]


class TestIntQueueAgainstFractions:
    @given(off_grid_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_field_by_field(self, pair):
        r1, r2 = pair
        want_profile, want = reference_fluid_queue(r1, r2)
        got, profile = collapse_measure(r1, r2)
        assert _fields(profile) == _fields(want_profile)
        # a rerun on the same pair gives an equal result, profile included
        assert collapse_measure(r1, r2) == (got, profile)
        grid = list(want_profile.positions)
        mids = [(lo + hi) / 2 for lo, hi in zip(grid, grid[1:] + [F(1)])]
        probes = grid + mids + OFF_GRID
        at = [profile.at(v) for v in probes]
        assert at == [reference_at(want_profile, v) for v in probes]
        assert _types(at) == [F] * len(at)
        flux = profile.values + profile.slopes
        assert _types(flux) == [F] * len(flux)
        assert got.breakpoints == want.breakpoints
        assert got.densities == want.densities
        assert got.atoms == want.atoms
        assert got.total_mass == want.total_mass == r1.total_mass
        atom_values = [x for a in got.atoms for x in a]
        assert _types(atom_values) == [F] * len(atom_values)
        assert flux_values_direct(r1, r2) == want_profile.values

    @given(off_grid_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_profile_is_the_flux_alone(self, pair, data):
        # one atom added to both layers where each has a breakpoint or an
        # atom, of a whole mass, so that no grid point or mass denominator
        # changes, leaves J alone: the profiles are equal and the collapse
        # keeps the atom
        r1, r2 = pair
        shared = {*r1.breakpoints, *(a.at for a in r1.atoms)}
        shared &= {*r2.breakpoints, *(a.at for a in r2.atoms)}
        at = data.draw(st.sampled_from(sorted(shared)))
        atom = TorusMeasure.from_atoms([at], data.draw(st.integers(1, 3)))
        kept, profile = collapse_measure(r1, r2)
        assert collapse_measure(r1.add(atom), r2.add(atom)) == (kept.add(atom), profile)

    @given(st.one_of(off_grid_pairs(), plateau_pairs()))
    @settings(max_examples=200, deadline=None)
    def test_kernel_form_is_the_form_of_the_kept_measure(self, pair):
        # the ints lap 2 writes are the canonical ints of the measure the
        # constructor builds from the result's Fractions
        kept = collapse_measure(*pair)[0]
        rebuilt = TorusMeasure(kept.breakpoints, kept.densities, kept.atoms)
        names = TorusMeasure.__slots__
        assert [getattr(kept, n) for n in names] == [getattr(rebuilt, n) for n in names]
        ints = [kept.grid, kept.dens_den, kept.mass_den]
        ints += [*kept.bp_nums, *kept.atom_nums, *kept.dens_nums, *kept.mass_nums]
        assert _types(ints) == [int] * len(ints)

    def test_rejects_more_mass_like_reference(self):
        r1, r2 = TorusMeasure.constant(F(2, 3)), TorusMeasure.constant(F(4, 7))
        for route in (reference_fluid_queue, collapse_measure):
            with pytest.raises(CollapseError, match="first measure has more mass"):
                route(r1, r2)


def _random_measure(rng, max_cells=5, max_atoms=2):
    ncells = rng.randint(1, max_cells)
    bps = sorted(rng.sample([F(i, 20) for i in range(20)], ncells))
    dens = [F(rng.randint(0, 10), 4) for _ in range(ncells)]
    atoms = {}
    for _ in range(rng.randint(0, max_atoms)):
        at = F(rng.randint(0, 39), 40)
        if at not in atoms:
            atoms[at] = F(rng.randint(1, 6), 6)
    return TorusMeasure(bps, dens, atoms.items())


# a heavier first part of two and a heavier middle part of three, in each regime
DISORDERED = {
    "configs-pair": [cfg(0, 1, 3, n=4), cfg(0, n=4)],
    "configs-triple": [cfg(0, n=4), cfg(0, 1, 2, n=4), cfg(1, 3, n=4)],
    "points-pair": [PointConfig([F(1, 3), F(1, 2)]), PointConfig([0])],
    "points-triple": [
        PointConfig([F(1, 7)]),
        PointConfig([F(1, 3), F(1, 2), F(3, 4)]),
        PointConfig([0, F(1, 4)]),
    ],
    "measures-pair": [TorusMeasure.constant(1), TorusMeasure.constant(F(1, 2))],
    "measures-triple": [
        TorusMeasure.constant(F(1, 4)),
        TorusMeasure.constant(1),
        TorusMeasure.constant(F(1, 2)),
    ],
}


class TestMultilayer:
    def test_identity_on_ordered(self):
        parts = [
            TorusMeasure.constant(F(1, 4)),
            TorusMeasure.constant(F(1, 2)),
            TorusMeasure.constant(F(3, 4)),
        ]
        assert list(collapse_k(parts)) == parts

    @pytest.mark.parametrize("parts", DISORDERED.values(), ids=DISORDERED.keys())
    def test_mass_ordering_enforced(self, parts):
        with pytest.raises(CollapseError, match="^masses must be nondecreasing$"):
            collapse_k(parts)

    def test_three_layer_worked_example(self):
        eps = F(1, 10)
        psi = [
            TorusMeasure.indicator(F(1, 8), F(1, 8) + eps, 2),
            TorusMeasure.indicator(0, eps, 4).add(
                TorusMeasure.indicator(F(7, 8), F(7, 8) + eps, 4)
            ),
            TorusMeasure.indicator(F(1, 4), F(1, 4) + eps, 4).add(
                TorusMeasure.indicator(F(1, 2), F(1, 2) + eps, 8)
            ),
        ]
        rho = [
            TorusMeasure.indicator(F(1, 4), F(1, 4) + eps / 2, 4),
            TorusMeasure.indicator(F(1, 4), F(1, 4) + eps, 4).add(
                TorusMeasure.indicator(F(1, 2), F(1, 2) + eps / 2, 8)
            ),
            psi[2],
        ]
        assert list(collapse_k(psi)) == rho

    def test_discrete_two_equals_binary(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(2, 12)
            m2 = rng.randint(0, n)
            m1 = rng.randint(0, m2)
            e1 = TorusConfig.from_sites(n, rng.sample(range(n), m1))
            e2 = TorusConfig.from_sites(n, rng.sample(range(n), m2))
            out = collapse_k([e1, e2])
            assert out[0] == collapse_discrete_algorithmic(e1, e2)
            assert out[1] == e2

    def test_output_ordered(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 10)
            ms = sorted(rng.randint(0, n) for _ in range(3))
            parts = [TorusConfig.from_sites(n, rng.sample(range(n), m)) for m in ms]
            out = collapse_k(parts)  # OrderedTuple validates on construction
            assert len(out) == 3


class TestCrossRegime:
    """The measure flux of unit-atom encodings is the integer queue's flux."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_config_flux_is_discrete_flux(self, data):
        n = data.draw(st.integers(1, 24))
        sites2 = data.draw(st.sets(st.integers(0, n - 1)))
        sites1 = data.draw(st.sets(st.integers(0, n - 1), max_size=len(sites2)))
        e1, e2 = TorusConfig.from_sites(n, sites1), TorusConfig.from_sites(n, sites2)
        _, prof = collapse_measure(atomic_measure(e1, 1), atomic_measure(e2, 1))
        _, lengths = queue_collapse(e1.occupied, e2.occupied)
        assert [prof.at(F(x, n)) for x in range(n)] == lengths

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_point_flux_is_queue_length(self, data):
        grid = data.draw(st.sampled_from([7, 30, 2**20]))
        ys = data.draw(st.sets(st.integers(0, grid - 1), max_size=12))
        xs = data.draw(st.sets(st.integers(0, grid - 1), max_size=len(ys)))
        merged = sorted(xs | ys)
        _, lengths = queue_collapse(
            [int(v in xs) for v in merged], [int(v in ys) for v in merged]
        )
        x = PointConfig([F(v, grid) for v in sorted(xs)])
        y = PointConfig([F(v, grid) for v in sorted(ys)])
        _, prof = collapse_measure(atomic_measure(x, 1), atomic_measure(y, 1))
        assert [prof.at(F(v, grid)) for v in merged] == lengths


class TestCommutation:
    def test_single_class_trivial(self):
        assert commutation_check([cfg(0, 2, n=4)], 4)

    def test_random_discrete(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(2, 16)
            k = rng.choice((2, 3))
            ms = sorted(rng.randint(0, n) for _ in range(k))
            parts = [TorusConfig.from_sites(n, rng.sample(range(n), m)) for m in ms]
            assert commutation_check(parts, n)

    def test_random_points(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.choice((2, 3))
            sizes = sorted(rng.randint(0, 6) for _ in range(k))
            parts = []
            for s in sizes:
                pts = set()
                while len(pts) < s:
                    pts.add(F(rng.randint(0, 101), 102))
                parts.append(PointConfig(sorted(pts)))
            assert commutation_check(parts, 7)

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=3)
            )
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_discrete_property(self, ring, scale_n):
        n, sites = ring
        parts = [TorusConfig.from_sites(n, s) for s in sorted(sites, key=len)]
        assert commutation_check(parts, scale_n)

    @given(st.lists(st.sets(POSITIONS, max_size=6), min_size=1, max_size=3), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_points_property(self, point_sets, scale_n):
        parts = [PointConfig(sorted(s)) for s in sorted(point_sets, key=len)]
        assert commutation_check(parts, scale_n)
