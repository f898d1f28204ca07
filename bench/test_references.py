"""The benchmark's reference routines against brute force on small inputs.

Run with `python3 -m pytest -q bench/test_references.py`; nothing here
imports the package.
"""

import itertools
import random
from fractions import Fraction

from refs import (
    balance_residual,
    dominated,
    interval_mass,
    queue_collapse_points,
    queue_collapse_ring,
    sorted_bond,
)

F = Fraction


def _move_in_order(positions, free, order, n):
    """Particle-moving collapse: repeatedly the first particle in `order`
    that sits off the second layer moves to the nearest second-layer site
    to its right that no particle holds.  `free(q)` says whether site q
    belongs to the second layer."""
    occupied = set(positions)
    current = {p: p for p in order}
    while True:
        for p in order:
            at = current[p]
            if free(at):
                continue
            q = (at + 1) % n
            while not free(q) or q in occupied:
                q = (q + 1) % n
            occupied.remove(at)
            occupied.add(q)
            current[p] = q
            break
        else:
            return occupied


def test_ring_queue_equals_every_processing_order():
    for n in range(1, 6):
        for eta1 in itertools.product((0, 1), repeat=n):
            for eta2 in itertools.product((0, 1), repeat=n):
                if sum(eta1) > sum(eta2):
                    continue
                want = queue_collapse_ring(eta1, eta2)
                sites = [x for x in range(n) if eta1[x]]
                for order in itertools.permutations(sites):
                    got = _move_in_order(sites, lambda q: eta2[q] == 1, order, n)
                    assert [int(x in got) for x in range(n)] == want


def test_points_queue_equals_every_processing_order():
    rng = random.Random(7)
    for _ in range(150):
        grid = [F(i, 12) for i in range(12)]
        y = sorted(rng.sample(grid, rng.randint(0, 6)))
        x = sorted(rng.sample(grid, rng.randint(0, len(y))))
        want = queue_collapse_points(x, y)
        ypos = set(y)
        # walk the torus along the grid, so the brute force knows nothing
        # of the merged order the reference uses
        idx = [grid.index(p) for p in x]
        for order in itertools.permutations(idx):
            got = _move_in_order(idx, lambda q: grid[q] in ypos, order, len(grid))
            assert sorted(grid[q] for q in got) == want


def _label_vectors(n, counts):
    labels = [0] * (n - sum(counts))
    for j, c in enumerate(counts, start=1):
        labels += [j] * c
    return sorted(set(itertools.permutations(labels)))


def test_balance_residual_equals_defining_sum():
    rng = random.Random(3)
    for n, counts in [(3, (1, 1)), (4, (1, 2)), (4, (1, 1, 1)), (5, (2, 1)), (5, (1, 1, 2))]:
        k = len(counts)
        states = _label_vectors(n, counts)
        pi = {s: F(rng.randint(1, 9), rng.randint(1, 9)) for s in states}
        q = {s: {t: 0 for t in states} for s in states}
        for s in states:
            for x in range(n):
                t = sorted_bond(s, x, k)
                if t != s:
                    q[s][t] += 1
                    q[s][s] -= 1
        res = balance_residual(pi, k)
        for t in states:
            assert res[t] == sum(pi[s] * q[s][t] for s in states)


def test_sorted_bond_ranks_holes_last():
    assert sorted_bond((2, 1, 0), 0, 2) == (1, 2, 0)
    assert sorted_bond((0, 1, 2), 0, 2) == (1, 0, 2)
    assert sorted_bond((1, 2, 0), 0, 2) == (1, 2, 0)
    assert sorted_bond((1, 0, 2), 2, 2) == (2, 0, 1)


def test_uniform_single_class_law_is_balanced():
    states = _label_vectors(5, (2,))
    pi = {s: F(1, len(states)) for s in states}
    assert all(v == 0 for v in balance_residual(pi, 1).values())


def _random_measure(rng, denom):
    bps = sorted({F(0)} | {F(rng.randrange(denom), denom) for _ in range(rng.randint(0, 4))})
    dens = [F(rng.randint(0, 6), 2) for _ in bps]
    atoms = {F(rng.randrange(denom), denom): F(rng.randint(1, 4), 4) for _ in range(rng.randint(0, 3))}
    return bps, dens, sorted(atoms.items())


def _grid_masses(measure, denom):
    """Per-grid-cell density mass and per-grid-point atom mass."""
    bps, dens, atoms = measure
    cells = []
    for i in range(denom):
        mid = F(2 * i + 1, 2 * denom)
        j = max(j for j, b in enumerate(bps) if b <= mid)
        cells.append(dens[j] / denom)
    points = [F(0)] * denom
    for at, m in atoms:
        points[int(at * denom)] += m
    return cells, points


def test_interval_mass_equals_grid_sum():
    rng = random.Random(5)
    denom = 8
    for _ in range(60):
        measure = _random_measure(rng, denom)
        cells, points = _grid_masses(measure, denom)
        for a in range(denom):
            for b in range(denom):
                steps = (b - a) % denom or denom
                want = sum(cells[(a + s) % denom] + points[(a + s + 1) % denom] for s in range(steps))
                assert interval_mass(*measure, F(a, denom), F(b, denom)) == want


def test_domination_equals_gridwise_comparison():
    rng = random.Random(9)
    denom = 8
    seen = {True: 0, False: 0}
    for _ in range(300):
        small, large = _random_measure(rng, denom), _random_measure(rng, denom)
        cs, ps = _grid_masses(small, denom)
        cl, pl = _grid_masses(large, denom)
        want = all(a <= b for a, b in zip(cs + ps, cl + pl))
        assert dominated(small, large) == want
        seen[want] += 1
    assert min(seen.values()) > 0
