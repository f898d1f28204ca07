import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toruscollapse import dynamics
from toruscollapse.collapse import atomic_measure, collapse_points, queue_collapse
from toruscollapse.dynamics import (
    ProcessSpec,
    StationaryTable,
    bond_update,
    check_draws,
    exact_stationary,
    had_sample_chain,
    had_simulate,
    pushforward_distribution,
    sample_invariant,
    tasep_simulate,
)
from toruscollapse.lattice import (
    POINT_GRID,
    EnumerationLimitError,
    PointConfig,
    TorusConfig,
    compositions,
    enumerate_configs,
    random_points,
    validate_ordered,
)
from toruscollapse.measures import TorusMeasure

from oracles import bareiss_stationary, tasep_state_frequencies

F = Fraction


class NeverTicks(random.Random):
    """A generator whose event clock never rings: any run ends at once."""

    def expovariate(self, rate):
        return math.inf


def had_simulate_on_fractions(initial, horizon, rng):
    """The mark process run on sorted Fraction lists: the reference the
    integer-grid had_simulate must match mark for mark and draw for draw."""
    layers = [list(x.points) for x in initial]
    t = 0.0
    events = []
    while True:
        t += rng.expovariate(1)
        if t >= horizon:
            return layers, events
        while True:
            u = F(rng.getrandbits(53), POINT_GRID)
            if not any(dynamics._holds(pts, u) for pts in layers):
                break
        dynamics._had_apply_mark(layers, u)
        events.append((t, u))


def reference_pushforward(spec):
    """The fold of collapse_k over the full table of label vectors, one
    count per state and no rotation: the reference the orbit fold of
    pushforward_distribution must match table for table."""
    n = spec.n
    counts = {(0,) * n: 1}
    for j, m in enumerate(spec.layer_sizes, start=1):
        etas = [c.occupied for c in enumerate_configs(n, m)]
        grown = {}
        for labels, c in counts.items():
            inner = [(i, [int(0 < l <= i) for l in labels]) for i in range(j - 1, 0, -1)]
            for eta in etas:
                lab = [j if e else 0 for e in eta]
                for i, theta in inner:
                    kept = queue_collapse(theta, eta)[0]
                    lab = [i if t else l for t, l in zip(kept, lab)]
                lab = tuple(lab)
                grown[lab] = grown.get(lab, 0) + c
        counts = grown
    tuples = math.prod(math.comb(n, m) for m in spec.layer_sizes)
    return StationaryTable(counts.items(), tuples)


def assert_stationary_certificate(tab, n, counts):
    """Certificate without a solve: every state present, integer balance at
    every state under bond_update, and every state reachable from one."""
    holes = n - sum(counts)
    states = math.factorial(n) // math.prod(math.factorial(c) for c in (*counts, holes))
    assert len(tab) == states
    weight = dict(zip(tab.states, tab.weights))
    inflow = dict.fromkeys(weight, 0)
    outflow = dict.fromkeys(weight, 0)
    for s, w in weight.items():
        for x in range(n):
            t = bond_update(s, x)
            if t != s:
                outflow[s] += w
                inflow[t] += w
    assert inflow == outflow
    seen, frontier = {tab.states[0]}, [tab.states[0]]
    while frontier:
        s = frontier.pop()
        for x in range(n):
            t = bond_update(s, x)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    assert seen == set(weight)


class TestBondUpdate:
    def test_particle_jumps_left(self):
        assert bond_update((0, 1), 0) == (1, 0)

    def test_blocked_jump(self):
        assert bond_update((1, 1), 0) == (1, 1)

    def test_first_class_overtakes_second(self):
        assert bond_update((2, 1), 0) == (1, 2)

    def test_second_class_blocked_by_first(self):
        assert bond_update((1, 2), 0) == (1, 2)

    def test_hole_ranks_last(self):
        assert bond_update((0, 2), 0) == (2, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rule_needs_no_class_count(self, k):
        # the pair is sorted with class order 1 < ... < k < hole, whatever k
        rank = lambda label: label or k + 1
        for a in range(k + 1):
            for b in range(k + 1):
                want = (b, a) if rank(a) > rank(b) else (a, b)
                assert bond_update((a, b, 0), 0) == (*want, 0)


    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reverse_move_is_the_forward_move_on_the_mirrored_ring(self, n):
        # so every state reaches the mirror of any state that reaches it:
        # a walk from the sorted state that meets every state proves the
        # chain has one closed class, which the solve needs
        moves = 0
        for s in itertools.product(range(4), repeat=n):
            for x in range(n):
                t = bond_update(s, x)
                if t != s:
                    moves += 1
                    assert bond_update(t[::-1], (n - 2 - x) % n) == s[::-1]
        assert moves == {2: 12, 3: 72, 4: 384, 5: 1920}[n]  # 2388 in all


def _random_rates(rng, k):
    """A k-state int rate matrix with unequal rates, irreducible through a
    random cycle over all states, plus random chords."""
    rates = [[0] * k for _ in range(k)]
    order = rng.sample(range(k), k)
    for s, t in zip(order, order[1:] + order[:1]):
        if s != t:
            rates[s][t] = rng.randint(1, 5)
    for _ in range(rng.randint(0, 2 * k)):
        s, t = rng.randrange(k), rng.randrange(k)
        if s != t:
            rates[s][t] = rng.randint(1, 9)
    for s in range(k):
        rates[s][s] = -sum(rates[s])
    return rates


def _balance_rows(rates):
    """The sparse balance rows of a dense rate matrix: rows[t][s] is the
    rate from s into t, zeros left out."""
    return [{s: row[t] for s, row in enumerate(rates) if row[t]} for t in range(len(rates))]


def _reduced(weights):
    g = math.gcd(*weights)
    return [w // g for w in weights]


class TestSparseSolve:
    """The sparse elimination of exact_stationary, held to the dense
    Bareiss solve of tests/oracles.py after gcd reduction."""

    def test_random_irreducible_chains_match_bareiss(self):
        rng = random.Random(29)
        for _ in range(60):
            rates = _random_rates(rng, rng.randint(1, 30))
            y, d = dynamics._solve_stationary_int(_balance_rows(rates))
            assert d == sum(y) > 0
            assert _reduced(y) == _reduced(bareiss_stationary(rates)[0])

    @pytest.mark.parametrize(
        "n,counts", [(3, (1, 1)), (5, (2, 1)), (6, (2, 2)), (6, (1, 1, 1, 1)), (7, (1, 2, 3))]
    )
    def test_lumped_chains_match_bareiss(self, monkeypatch, n, counts):
        # (6, (2, 2)) has orbits of sizes 3 and 6
        solve, seen = dynamics._solve_stationary_int, []
        monkeypatch.setattr(dynamics, "_solve_stationary_int", lambda eqs: seen.append(eqs) or solve(eqs))
        exact_stationary(ProcessSpec("tasep", counts, n=n))
        (eqs,) = seen
        rates = [[row.get(s, 0) for row in eqs] for s in range(len(eqs))]
        # each orbit's n bonds leave it or keep it: every rate row sums to 0
        assert all(sum(row) == 0 for row in rates)
        y, d = solve(eqs)
        assert d == sum(y) > 0
        assert _reduced(y) == _reduced(bareiss_stationary(rates)[0])

    @pytest.mark.parametrize(
        "rates",
        [
            # 0 <-> 1 and 2 <-> 3 never meet
            [[-1, 1, 0, 0], [2, -2, 0, 0], [0, 0, -3, 3], [0, 0, 1, -1]],
            # 0 falls into 1 or into 2, both absorbing
            [[-3, 1, 2], [0, 0, 0], [0, 0, 0]],
        ],
    )
    def test_two_closed_classes_are_singular(self, rates):
        with pytest.raises(ValueError, match="singular"):
            dynamics._solve_stationary_int(_balance_rows(rates))
        with pytest.raises(ValueError, match="singular"):
            bareiss_stationary(rates)

    def test_rows_of_no_rate_matrix_break_the_unused_equation(self):
        # y = (1, 1) solves the first row, the pivot, but not the second
        with pytest.raises(RuntimeError, match="breaks a balance equation"):
            dynamics._solve_stationary_int([{0: -1, 1: 1}, {0: 1, 1: -2}])


class TestSpec:
    def test_layer_sizes(self):
        spec = ProcessSpec("tasep", (1, 2), n=5)
        assert spec.layer_sizes == (1, 3)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            ProcessSpec("tasep", (3, 3), n=5)

    def test_point_model_refuses_a_ring_size(self):
        with pytest.raises(ValueError, match="the point model takes no ring size n"):
            ProcessSpec("had", (1, 1), n=5)


class TestExactStationary:
    def test_one_class_uniform(self):
        for n, m in [(4, 1), (5, 2), (6, 3)]:
            tab = exact_stationary(ProcessSpec("tasep", (m,), n=n))
            count = len(tab)
            assert all(p == F(1, count) for p in tab.probs)

    def test_two_class_n3_table(self):
        tab = exact_stationary(ProcessSpec("tasep", (1, 1), n=3))
        expected = {
            (0, 1, 2): F(2, 9),
            (0, 2, 1): F(1, 9),
            (1, 0, 2): F(1, 9),
            (1, 2, 0): F(2, 9),
            (2, 0, 1): F(2, 9),
            (2, 1, 0): F(1, 9),
        }
        assert dict(tab.items()) == expected

    @pytest.mark.parametrize(
        "n,counts",
        [
            (3, (1, 1)),
            (4, (1, 2)),
            (4, (1, 1, 1)),
            (5, (2, 1)),
            (7, (1, 2, 3)),
            (7, (2, 2, 2)),
            # orbits of size 3 (120120) besides full orbits of size 6
            (6, (2, 2)),
            # 1680 states on 210 orbits: inside the orbit cap
            (8, (1, 2, 3)),
        ],
    )
    def test_pushforward_matches(self, n, counts):
        spec = ProcessSpec("tasep", counts, n=n)
        assert exact_stationary(spec).tv_distance(pushforward_distribution(spec)) == 0

    def test_table_invariants(self):
        tab = exact_stationary(ProcessSpec("tasep", (2, 1), n=5))
        assert sum(tab.probs) == 1
        assert all(p > 0 for p in tab.probs)
        assert list(tab.states) == sorted(tab.states)

    def test_solve_size_cap(self):
        with pytest.raises(ValueError, match="too large for an exact solve"):
            exact_stationary(ProcessSpec("tasep", (2, 2, 2), n=11))

    def test_solve_cap_refuses_above_its_orbits_at_once(self):
        # 25200 states on 2520 orbits, above the cap of 1000
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="too large for an exact solve"):
            exact_stationary(ProcessSpec("tasep", (2, 3, 3), n=10))
        assert time.perf_counter() - t0 < 1.0

    def test_solve_admits_every_three_class_vector_at_n9(self):
        # 7560 states on 840 orbits, the most of any vector of at most
        # three classes at N = 9
        spec = ProcessSpec("tasep", (2, 2, 3), n=9)
        assert exact_stationary(spec) == pushforward_distribution(spec)

    def test_walk_solves_three_classes_at_n12(self):
        # 1320 states on 110 orbits, inside the orbit cap
        spec = ProcessSpec("tasep", (1, 1, 1), n=12)
        got, want = exact_stationary(spec), pushforward_distribution(spec)
        assert len(got) == 1320
        assert (got.states, got.weights, got.denominator) == (
            want.states,
            want.weights,
            want.denominator,
        )

    def test_walk_refuses_rings_beyond_the_enumeration_cap(self):
        # 13 states on one orbit pass the orbit cap; the walk would store
        # every state, so the ring-size cap of the exhaustive helpers holds
        with pytest.raises(EnumerationLimitError, match="N=13 > 12"):
            exact_stationary(ProcessSpec("tasep", (1,), n=13))

    def test_walk_that_misses_states_is_refused(self, monkeypatch):
        # an update that never moves a particle keeps the walk on the
        # sorted state's orbit: 4 of the 12 states of (4, (1, 1))
        monkeypatch.setattr(dynamics, "bond_update", lambda labels, x: labels)
        with pytest.raises(RuntimeError, match="reached 4 of 12 states"):
            exact_stationary(ProcessSpec("tasep", (1, 1), n=4))

    def test_solve_cap_counts_the_orbits_it_builds(self, monkeypatch):
        # 90 states: size // n is 15, but the six states of period 3 make
        # a sixteenth orbit
        spec = ProcessSpec("tasep", (2, 2), n=6)
        monkeypatch.setattr(dynamics, "MAX_SOLVE_ORBITS", 15)
        with pytest.raises(ValueError, match="too large for an exact solve"):
            exact_stationary(spec)
        monkeypatch.setattr(dynamics, "MAX_SOLVE_ORBITS", 16)
        assert exact_stationary(spec).tv_distance(pushforward_distribution(spec)) == 0

    @pytest.mark.parametrize(
        "n,counts",
        [(7, (2, 2, 2)), (8, (2, 2, 2)), (8, (1, 2, 3)), (9, (2, 2, 3)), (10, (2, 3, 3))],
    )
    def test_pushforward_is_stationary_beyond_the_dense_solve(self, n, counts):
        tab = pushforward_distribution(ProcessSpec("tasep", counts, n=n))
        assert_stationary_certificate(tab, n, counts)

    @pytest.mark.parametrize("n,counts", [(6, (1, 2, 2)), (7, (2, 2, 2)), (6, (2, 2))])
    def test_exact_stationary_passes_the_certificate(self, n, counts):
        # full-chain balance, so a lumping mistake shared with the
        # pushforward cannot hide behind equal tables; (6, (2, 2)) has
        # orbits of size 3 and 6, the other two only full orbits
        tab = exact_stationary(ProcessSpec("tasep", counts, n=n))
        assert_stationary_certificate(tab, n, counts)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_orbit_fold_matches_the_full_table_fold(self, n):
        # up to N = 7 every class vector of suite stationarity's range, among
        # them (6, (2, 2)) with final orbits such as 120120, shorter than the
        # ring, and (4, (1, 1)); at N = 8 (2, 2, 2), with orbits such as
        # 12301230, and (1, 2, 3)
        # class vectors: compositions of n into classes and holes, holes dropped
        small = [c[:-1] for k in (2, 3) for c in compositions(n, k + 1)]
        vectors = small if n < 8 else [(2, 2, 2), (1, 2, 3)]
        for counts in vectors:
            spec = ProcessSpec("tasep", counts, n=n)
            got, want = pushforward_distribution(spec), reference_pushforward(spec)
            assert (got.states, got.weights, got.denominator) == (
                want.states,
                want.weights,
                want.denominator,
            ), counts

    def test_pushforward_rejects_non_nested_collapse(self, monkeypatch):
        def broken(first, second):
            kept, lengths = queue_collapse(first, second)
            return [1 - b for b in kept], lengths

        monkeypatch.setattr(dynamics, "queue_collapse", broken)
        with pytest.raises(RuntimeError, match="not nested"):
            pushforward_distribution(ProcessSpec("tasep", (1, 1), n=4))


class TestStationaryTable:
    def test_weights_reduce_and_read_back(self):
        states = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        table = StationaryTable(zip(states, [2, 4, 6]), 12)
        assert (table.weights, table.denominator) == ((1, 2, 3), 6)
        assert table.probs == (F(1, 6), F(1, 3), F(1, 2))
        assert dict(table.items()) == dict(zip(states, [F(1, 6), F(1, 3), F(1, 2)]))

    def test_weights_must_sum_to_denominator(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StationaryTable([((0, 1), 1), ((1, 0), 1)], 3)

    def test_tv_distance(self):
        a = StationaryTable([((0, 1), 1), ((1, 0), 1)], 2)
        b = StationaryTable([((0, 1), 1), ((1, 1), 2)], 3)
        assert a.tv_distance(b) == F(2, 3)


class TestSimulation:
    def test_full_single_class_ring_frozen(self):
        labels = (1, 1, 1, 1)
        final, events = tasep_simulate(labels, 5.0, random.Random(0), record=True)
        assert final == labels and events
        for _, x in events:
            assert bond_update(labels, x) == labels

    def test_unrecorded_runs_count_the_recorded_events(self):
        labels = (2, 0, 1, 0, 2, 1)
        final, events = tasep_simulate(labels, 4.0, random.Random(3), record=True)
        assert tasep_simulate(labels, 4.0, random.Random(3)) == (final, len(events))
        start = [PointConfig([F(1, 4)]), PointConfig([F(1, 4), F(1, 2)])]
        out, marks = had_simulate(start, 30.0, random.Random(3), record=True)
        assert len(events) > 0 and len(marks) > 0
        assert had_simulate(start, 30.0, random.Random(3)) == (out, len(marks))

    def test_recorded_run_replays_through_bond_update(self):
        rng = random.Random(8)
        labels = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(200))
        final, events = tasep_simulate(labels, 5.0, random.Random(9), record=True)
        assert len(events) > 500
        for _, x in events:
            labels = bond_update(labels, x)
        assert final == labels

    def test_bond_update_mirror_identity(self):
        # reversing the ring turns the move on bond x into the inverse move
        # on the mirrored bond: bond_update undoes every swap it makes
        moves = 0
        for n in range(2, 7):
            for labels in itertools.product(range(4), repeat=n):
                for x in range(n):
                    after = bond_update(labels, x)
                    if after != labels:
                        moves += 1
                        assert bond_update(after[::-1], (n - 2 - x) % n) == labels[::-1]
        assert moves == 11604

    def test_full_multiclass_ring_classes_still_swap(self):
        # occupancy is frozen but lower classes keep overtaking higher ones
        final, _ = tasep_simulate((2, 2, 1, 1), 5.0, random.Random(0))
        assert all(l != 0 for l in final)
        assert sorted(final) == [1, 1, 2, 2]

    def test_single_particle_uniform_position(self):
        rng = random.Random(3)
        tab = exact_stationary(ProcessSpec("tasep", (1,), n=4))
        freq = tasep_state_frequencies((1, 0, 0, 0), 80000, rng)
        tv = sum(abs(freq.get(s, 0.0) - float(p)) for s, p in tab.items()) / 2
        assert tv < 0.02

    def test_two_class_frequencies_match_table(self):
        rng = random.Random(42)
        spec = ProcessSpec("tasep", (1, 1), n=3)
        tab = exact_stationary(spec)
        freq = tasep_state_frequencies(tab.states[0], 200000, rng)
        tv = sum(abs(freq.get(s, 0.0) - float(p)) for s, p in tab.items()) / 2
        assert tv < 0.02

    def test_had_one_point_moves(self):
        rng = random.Random(5)
        start = PointConfig([F(1, 2)])
        out, events = had_simulate([start], 20.0, rng, record=True)
        assert len(out[0]) == 1
        assert len(events) > 5

    def test_had_redraws_colliding_marks(self):
        class ScriptedRng:
            def __init__(self, bits):
                self.bits = iter(bits)

            def expovariate(self, rate):
                return 1.0

            def getrandbits(self, k):
                return next(self.bits)

        start = [PointConfig([F(3, 2**53)]), PointConfig([F(3, 2**53), F(5, 2**53)])]
        # the first draw of each mark hits an occupied point and is redrawn
        _, events = had_simulate(start, 2.5, ScriptedRng([5, 7, 3, 11]), record=True)
        assert [u for _, u in events] == [F(7, 2**53), F(11, 2**53)]

    def test_had_inclusion_preserved(self):
        rng = random.Random(6)
        x2 = random_points(10, rng)
        x1 = PointConfig(sorted(rng.sample(list(x2.points), 5)))
        out, events = had_simulate([x1, x2], 100.0, rng, record=True)
        # replay the recorded marks and check the inclusion after each one
        layers = [list(x1.points), list(x2.points)]
        for _, u in events:
            dynamics._had_apply_mark(layers, u)
            assert set(layers[0]) <= set(layers[1])
        assert [list(p.points) for p in out] == layers

    def test_had_matches_the_fraction_reference_bit_for_bit(self):
        rng = random.Random(31)
        full = random_points(200, rng)
        first = PointConfig(sorted(rng.sample(full.points, 100)))
        mine, theirs = random.Random(32), random.Random(32)
        out, events = had_simulate([first, full], 2000.0, mine, record=True)
        layers, want = had_simulate_on_fractions([first, full], 2000.0, theirs)
        assert len(events) > 1000
        assert [list(p.points) for p in out] == layers
        assert events == want
        # the same generator consumption: the next draw agrees
        assert mine.random() == theirs.random()

    def test_horizon_capped_by_its_expected_event_count(self, no_clock_random):
        # refused before the first event: the clock of no_clock_random fails
        rng = no_clock_random(0)
        cap = dynamics.MAX_EXPECTED_EVENTS
        with pytest.raises(ValueError, match="expects about 4e\\+12 events, more than the cap"):
            tasep_simulate((1, 0, 2, 0), 1e12, rng)
        # N * horizon counts for the ring, the horizon alone for the marks
        with pytest.raises(ValueError, match="more than the cap"):
            tasep_simulate((1, 0, 2, 0), cap / 2, rng)
        start = [PointConfig([F(1, 4)]), PointConfig([F(1, 4), F(1, 2)])]
        with pytest.raises(ValueError, match="more than the cap"):
            had_simulate(start, 2.0 * cap, rng)
        with pytest.raises(ValueError, match="more than the cap"):
            had_sample_chain(start, rng, 1, 1.0, burn_in=2.0 * cap)
        # at the cap itself a run starts (a clock that never ticks ends it)
        assert tasep_simulate((1, 0, 2, 0), cap / 4, NeverTicks(0)) == ((1, 0, 2, 0), 0)
        assert had_simulate(start, float(cap), NeverTicks(0))[1] == 0

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_unreachable_horizon_refused(self, no_clock_random, horizon):
        rng = no_clock_random(0)
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            tasep_simulate((1, 0, 2), horizon, rng)
        start = [PointConfig([F(1, 4)]), PointConfig([F(1, 4), F(1, 2)])]
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            had_simulate(start, horizon, rng)
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            had_sample_chain(start, rng, 1, 1.0, burn_in=horizon)

    def test_had_chain_sampling(self):
        rng = random.Random(7)
        spec = ProcessSpec("had", (2, 2))
        start = sample_invariant(spec, rng)
        samples = had_sample_chain(list(start), rng, 5, 3.0, burn_in=1.0)
        assert len(samples) == 5
        for s in samples:
            assert validate_ordered(s)[0]


# points on and off the sampling grid: a denominator 3 or 7 makes the
# common denominator of had_simulate a proper multiple of POINT_GRID
OFF_GRID = st.sampled_from([3, 7, 2**20, 2**53]).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda v: F(v, d))
)


class TestOffGridPoints:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_points_run_on_their_common_denominator(self, data):
        ys = sorted(data.draw(st.sets(OFF_GRID, min_size=1, max_size=12)))
        xs = sorted(data.draw(st.sets(OFF_GRID, max_size=len(ys))))
        # the Fraction queue reference: merge, then the queue kernel
        merged = sorted(set(xs) | set(ys))
        kept = queue_collapse([int(p in xs) for p in merged], [int(p in ys) for p in merged])[0]
        want = [p for p, k in zip(merged, kept) if k]
        got = collapse_points(PointConfig(xs), PointConfig(ys))
        assert list(got.points) == want

        inner = sorted(data.draw(st.lists(st.sampled_from(ys), unique=True, max_size=len(ys))))
        initial = [PointConfig(inner), PointConfig(ys)]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        out, events = had_simulate(initial, 5.0, rng, record=True)
        layers = [list(inner), list(ys)]
        for _, u in events:
            dynamics._had_apply_mark(layers, u)
            assert set(layers[0]) <= set(layers[1])
        assert [list(p.points) for p in out] == layers
        for p in (got, *out):
            assert p.grid == math.lcm(*(u.denominator for u in p.points))


class TestSampler:
    def test_tasep_sample_counts(self):
        rng = random.Random(1)
        spec = ProcessSpec("tasep", (2, 1), n=6)
        for _ in range(20):
            out = sample_invariant(spec, rng)
            assert [c.count for c in out] == [2, 3]
            assert validate_ordered(out)[0]

    def test_had_sample_inclusion(self):
        rng = random.Random(2)
        spec = ProcessSpec("had", (4, 4))
        for _ in range(20):
            out = sample_invariant(spec, rng)
            assert len(out[0]) == 4 and len(out[1]) == 8
            assert validate_ordered(out)[0]


    @pytest.mark.parametrize(
        "spec, message",
        [
            (ProcessSpec("tasep", (5,), n=10**8), "100000000 sites in each of 1 walks, charged 100000010"),
            (ProcessSpec("tasep", (1, 1, 1), n=499_991), "499991 sites in each of 6 walks, charged 3000006"),
            (ProcessSpec("had", (10**7,)), "10000000 points in each of 1 walks, charged 10000010"),
            (ProcessSpec("had", (0,) * 738 + (1,)), "1 points in each of 273430 walks, charged 3007730"),
            # empty layers: each walk costs its fixed overhead only
            (ProcessSpec("had", (0,) * 2400), "0 points in each of 2881200 walks, charged 28812000"),
        ],
    )
    def test_oversized_draw_refused_before_drawing(self, spec, message):
        # the generator is None, so any draw would raise AttributeError
        with pytest.raises(
            ValueError, match=rf"a draw would walk {message} with 10 more per walk, more than the cap"
        ):
            sample_invariant(spec, None)

    @pytest.mark.parametrize(
        "spec",
        [
            ProcessSpec("tasep", (1, 1), n=dynamics.MAX_SAMPLE_SITES // 3 - dynamics.WALK_OVERHEAD),
            ProcessSpec("tasep", (1, 1, 1), n=499_990),
            ProcessSpec("had", (dynamics.MAX_SAMPLE_POINTS // 3 - dynamics.WALK_OVERHEAD, 0)),
            ProcessSpec("had", (0,) * 737 + (1,)),
        ],
    )
    def test_draw_at_the_cap_starts(self, spec):
        with pytest.raises(AttributeError):
            sample_invariant(spec, None)

    def test_draws_together_capped(self):
        # 990 sites and 10 of fixed cost: 1000 charged per draw
        spec = ProcessSpec("tasep", (1,), n=990)
        check_draws(spec, dynamics.MAX_DRAWS_CHARGE // 1000)
        with pytest.raises(ValueError, match=r"^5001 draws would be charged 5001000 sites \(1000 each\)"):
            check_draws(spec, dynamics.MAX_DRAWS_CHARGE // 1000 + 1)

    def test_benchmark_draws_admitted(self):
        tasep = sample_invariant(ProcessSpec("tasep", (4000, 4000), n=16000), random.Random(3))
        assert [c.count for c in tasep] == [4000, 8000]
        had = sample_invariant(ProcessSpec("had", (800, 800)), random.Random(4))
        assert [len(layer) for layer in had] == [800, 1600]


class TestEmpirical:
    def test_empty_config(self):
        assert atomic_measure(TorusConfig([0, 0]), 2) == TorusMeasure.constant(0)

    def test_atomic_example(self):
        got = atomic_measure(TorusConfig.from_sites(4, [0, 2]), 4)
        want = TorusMeasure.from_atoms([0, F(1, 2)], F(1, 4))
        assert got == want
