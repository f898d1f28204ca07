"""Multiclass exclusion and Hammersley dynamics, exact stationary laws and
invariant-measure samplers.

Events are scheduled with a single global exponential clock (rate N for the
ring walk, rate 1 for the continuous mark process) followed by a uniform
site or position mark; this is equivalent in law to independent local
clocks and keeps the code auditable.  All randomness flows through an
explicitly seeded generator.

Both exact routes work on rotation orbits of label vectors rather than on
single states, keyed by least rotation through one memo.  The exact
pushforward runs the fold of collapse_k (each new outer layer takes every
collapsed layer so far through one binary collapse) over counts instead of
over tuples: the label vector of the collapsed layers is all the next fold
step needs, and since the uniform layers' law is rotation invariant and
the collapse commutes with rotation, one count per orbit is enough.  The
independent route, exact_stationary, walks the chain lumped onto orbits
from the sorted state, writing one sparse balance row per orbit, and
solves those rows by fraction-free elimination: the ring dynamics commute
with rotation, so the stationary law is constant on each orbit.  The ring
update needs no class count: holes rank last.

had_simulate runs its layers as sorted ints over the common denominator of
their points and POINT_GRID, the grid of its marks, and returns them through
PointConfig.on_grid; Fractions are built only for the recorded marks.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .collapse import collapse_k, queue_collapse
from .lattice import (
    POINT_GRID,
    OrderedTuple,
    PointConfig,
    check_enumerable,
    enumerate_configs,
    random_config,
    random_points,
)
from .measures import rescale

# rotation orbits the exact solve may lump the chain onto: every vector of
# up to three classes at N = 9 (at most 840 orbits) is solved.  Of every
# admitted vector of at least 400 orbits, the slowest, N = 11 (3,5) (840
# orbits), takes 2.2 s, N = 9 (2,2,3) 1.5 s and N = 12 (1,1,1,1) (990
# orbits) 0.8 s (2 vCPU, Python 3.11); N = 10 (2,3,3) (2520 orbits) is
# refused
MAX_SOLVE_ORBITS = 1000
# expected events of one simulated run (rate N per unit time on a ring of
# N sites, rate 1 for the mark process): 0.75-1 M ring events/s on rings
# of 4-20,000 sites and 0.1-0.4 M marks/s on 2-10,000 points (2 vCPU,
# Python 3.11), so an admitted run ends within about ten seconds
MAX_EXPECTED_EVENTS = 10**6
# the fixed cost of one walk of an invariant draw, in sites or points: a
# walk of empty point sets takes 3.7 us, as long as ten points at 0.37 us
# each, and one of an empty two-site ring 1.3 us, as long as ten sites of a
# half-filled ring of 10^6 sites at 0.13 us each (2 vCPU, Python 3.11)
WALK_OVERHEAD = 10
# sites (exclusion) or points (Hammersley) one invariant draw walks, each
# walk charged WALK_OVERHEAD more: the ring, or the largest layer, once per
# layer drawn and once per pairwise collapse, k(k+1)/2 times for k classes.
# Near the cap, two classes on 10^6 sites take 0.5 s, and on 500,000 +
# 500,000 points 2.3 s (2 vCPU, Python 3.11)
MAX_SAMPLE_SITES = 3 * 10**6
MAX_SAMPLE_POINTS = 3 * 10**6
# the same charge, summed over the draws of one command (CLI
# sample-invariant), which also encodes, holds and prints every draw.  From
# start to exit at this cap, eight draws of 100,000 + 100,000 points take
# 6.3 s (1.3 us per charged point, 640 MiB peak) and 416,666 draws on a
# two-site ring 2.8 s (0.6 us per charged site) (2 vCPU, Python 3.11), so
# an admitted command ends within about ten seconds
MAX_DRAWS_CHARGE = 5 * 10**6


@dataclass(frozen=True)
class ProcessSpec:
    """Model instance: class counts Delta_i, plus the ring size for the
    exclusion process.  Cumulative counts give the per-layer masses."""

    model: str
    class_counts: tuple[int, ...]
    n: int | None = None

    def __post_init__(self):
        if self.model not in ("tasep", "had"):
            raise ValueError("model must be 'tasep' or 'had'")
        if not self.class_counts:
            raise ValueError("at least one class count is required")
        if any(c < 0 for c in self.class_counts):
            raise ValueError("class counts must be nonnegative")
        if self.model == "tasep":
            if self.n is None or self.n < 2:
                raise ValueError("ring size n >= 2 required")
            if sum(self.class_counts) > self.n:
                raise ValueError("class counts exceed ring size")
        elif self.n is not None:
            raise ValueError("the point model takes no ring size n")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.class_counts))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class StationaryTable:
    """Exact distribution over multiclass states, keyed by label vector in
    lexicographic order.

    Probabilities are stored as integer weights over one common
    denominator, reduced by their gcd; `probs` returns them as exact
    Fractions.
    """

    states: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    denominator: int

    def __init__(self, entries: Iterable[tuple[tuple[int, ...], int]], denominator: int):
        """Table of (state, weight) pairs: probability weight / denominator."""
        items = sorted(entries)
        weights = [w for _, w in items]
        if any(w < 0 for w in weights):
            raise ValueError("negative probability")
        if denominator <= 0 or sum(weights) != denominator:
            raise ValueError("probabilities must sum to 1")
        g = math.gcd(denominator, *weights)
        object.__setattr__(self, "states", tuple(s for s, _ in items))
        object.__setattr__(self, "weights", tuple(w // g for w in weights))
        object.__setattr__(self, "denominator", denominator // g)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.denominator) for w in self.weights)

    def items(self):
        return zip(self.states, self.probs)

    def tv_distance(self, other: "StationaryTable") -> Fraction:
        mine = dict(zip(self.states, self.weights))
        theirs = dict(zip(other.states, other.weights))
        d1, d2 = self.denominator, other.denominator
        diff = sum(
            abs(mine.get(s, 0) * d2 - theirs.get(s, 0) * d1) for s in mine.keys() | theirs.keys()
        )
        return Fraction(diff, 2 * d1 * d2)

    def to_json_dict(self) -> dict:
        return {
            "states": ["".join(map(str, s)) for s in self.states],
            "probabilities": [str(p) for p in self.probs],
        }


# ---------------------------------------------------------------------------
# exclusion dynamics on label vectors
# ---------------------------------------------------------------------------


def _update(labels: list[int], x: int) -> bool:
    """Sort the labels on bond (x, x+1) in place, the lower class at x and
    holes (label 0) ranked last; whether they swapped."""
    y = (x + 1) % len(labels)
    a, b = labels[x], labels[y]
    if b != 0 and (a == 0 or a > b):
        labels[x], labels[y] = b, a
        return True
    return False


def bond_update(labels: tuple[int, ...], x: int) -> tuple[int, ...]:
    """Joint sorted update on bond (x, x+1): the lower class ends up at x.

    Applying the two-site decreasing rearrangement in every layer at once
    amounts to sorting the pair of labels with holes ranked last.
    """
    out = list(labels)
    return tuple(out) if _update(out, x) else labels


def check_horizon(horizon: float, rate: int) -> None:
    """A run must end, and within seconds: refuse a horizon that is
    negative, infinite or NaN, or at which a clock of the given total rate
    expects more than MAX_EXPECTED_EVENTS events."""
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")
    if rate * horizon > MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"horizon {horizon!r} expects about {rate * horizon:.3g} events, "
            f"more than the cap of {MAX_EXPECTED_EVENTS}"
        )


def tasep_simulate(initial: Sequence[int], horizon: float, rng, record: bool = False):
    """Continuous-time run up to the horizon; one exponential clock of rate
    N, then a uniform bond, updated in place in O(1).  Returns
    (final_labels, events) with events the (time, bond) pairs when record
    is set, else their number: replaying the bonds from `initial` through
    bond_update gives the labels after each event."""
    labels = list(initial)
    n = len(labels)
    check_horizon(horizon, n)
    t = 0.0
    events, count = [], 0
    while True:
        t += rng.expovariate(n)
        if t >= horizon:
            return tuple(labels), events if record else count
        x = rng.randrange(n)
        _update(labels, x)
        if record:
            events.append((t, x))
        else:
            count += 1


def _solve_stationary_int(eqs: list[dict[int, int]]) -> tuple[list[int], int]:
    """Stationary law of a chain with one closed class as int weights y
    over D = sum(y), from its balance rows: eqs[t][s] is the rate from s
    into t, less the total rate out of t on the diagonal.

    The last state's weight is free; every other state is eliminated, in
    order, through the shortest remaining row that holds it, and each new
    row is divided by the gcd of its entries.  Back-substitution stays in
    ints by scaling y by each reduced pivot.  A final pass checks every
    balance equation, the one left unused included."""
    rows = dict(enumerate(eqs))
    pivots = []
    for col in range(len(eqs) - 1):
        holding = [i for i, row in rows.items() if row.get(col)]
        if not holding:
            raise ValueError("singular stationary system; chain not irreducible?")
        piv = rows.pop(min(holding, key=lambda i: len(rows[i])))
        pivots.append((col, piv))
        for i in rows.keys() & holding:  # the rows holding col, the pivot's gone
            g = math.gcd(piv[col], rows[i][col])
            a, b = piv[col] // g, rows[i][col] // g
            new = dict(rows[i]) if a == 1 else {j: a * v for j, v in rows[i].items()}
            for j, v in piv.items():
                new[j] = new.get(j, 0) - b * v
            del new[col]  # now 0, as any other entry that cancels may be
            g = math.gcd(*new.values())
            rows[i] = {j: v // g for j, v in new.items()} if g > 1 else new
    y = [0] * (len(eqs) - 1) + [1]
    for col, piv in reversed(pivots):
        s = sum(v * y[j] for j, v in piv.items() if j != col)
        g = math.gcd(piv[col], s)
        if piv[col] != g:
            y = [w * (piv[col] // g) for w in y]
        y[col] = -s // g
    if any(sum(v * y[j] for j, v in row.items()) for row in eqs):
        raise RuntimeError("the solve breaks a balance equation")
    return (y, sum(y)) if y[-1] > 0 else ([-w for w in y], -sum(y))


def _least_rotation(labels: tuple[int, ...], orbits: dict) -> tuple[int, ...]:
    """The least rotation of a label vector, read from the memo `orbits`,
    which maps every state of each orbit met so far to that orbit's least
    rotation; an orbit met for the first time is recorded whole."""
    rep = orbits.get(labels)
    if rep is None:
        orbit = {labels[r:] + labels[:r] for r in range(len(labels))}
        rep = min(orbit)
        orbits.update(dict.fromkeys(orbit, rep))
    return rep


def check_solvable(spec: ProcessSpec) -> int:
    """Refuse, before any walk, a spec the exact solve cannot take: the point
    model, a ring of more than MAX_ENUM_N sites (the walk stores every
    state), or size // n > MAX_SOLVE_ORBITS (an orbit holds at most n
    states).  Returns size, the state count."""
    if spec.model != "tasep":
        raise ValueError("exact stationary tables exist only for the ring model")
    check_enumerable(spec.n)
    counts = (*spec.class_counts, spec.n - sum(spec.class_counts))
    size = math.factorial(spec.n) // math.prod(math.factorial(c) for c in counts)
    if size // spec.n > MAX_SOLVE_ORBITS:
        raise ValueError("state space too large for an exact solve")
    return size


def exact_stationary(spec: ProcessSpec) -> StationaryTable:
    """Exact stationary distribution of the multiclass exclusion process by
    an integer solve of the balance equations on rotation orbits.

    The ring dynamics commute with rotation, so the chain lumped onto
    rotation orbits of label vectors is again a Markov chain: from any state
    of orbit O, the rate into orbit O' != O is the number of bonds whose
    update lands in O'.  The orbits come from walking that chain from the
    sorted state, updating each least rotation at every bond; a walk that
    misses a state raises.  As the reverse of a move is the forward move on
    the mirrored ring, every state then reaches the mirrored sorted state:
    one closed class.  Its stationary law y_O / D is the mass of O, and
    that of the full chain is constant on each orbit, so each state of O
    gets y_O * (n // |O|) over D * n (|O| divides n).  The route reads only
    bond_update and rotation, never the collapse."""
    size = check_solvable(spec)
    n = spec.n
    holes = n - sum(spec.class_counts)
    start = (0,) * holes + tuple(j for j, c in enumerate(spec.class_counts, 1) for _ in range(c))
    orbits: dict[tuple[int, ...], tuple[int, ...]] = {}
    reps = [_least_rotation(start, orbits)]
    index = {reps[0]: 0}
    # eqs[t][s]: the bonds that take orbit s into orbit t, less n on the diagonal
    eqs = [Counter()]
    for s, rep in enumerate(reps):  # reps grows as the walk reaches new orbits
        for x in range(n):
            to = _least_rotation(bond_update(rep, x), orbits)
            t = index.get(to)
            if t is None:
                if len(reps) == MAX_SOLVE_ORBITS:
                    raise ValueError("state space too large for an exact solve")
                t = index[to] = len(reps)
                reps.append(to)
                eqs.append(Counter())
            eqs[t][s] += 1
        eqs[s][s] -= n
    if len(orbits) != size:
        raise RuntimeError(f"the walk from the sorted state reached {len(orbits)} of {size} states")
    y, denominator = _solve_stationary_int(eqs)
    # over denominator * n, every orbit's mass splits evenly: |O| divides n
    return _spread_orbits(orbits, {rep: w * n for rep, w in zip(reps, y)}, denominator * n)


def pushforward_distribution(spec: ProcessSpec) -> StationaryTable:
    """Exact law of the k-fold collapse of independent uniform layers.

    Runs the fold of collapse_k over counts of label vectors, one uniform
    layer at a time (the multiline queue of Ferrari and Martin).  Collapsed
    layer i is the set of sites labelled 1..i.  A new outer layer eta
    collapses each of them onto eta with the queue kernel, and each site is
    labelled by its first occupied collapsed layer, or j + 1 for a site of
    eta only.

    The fold runs on rotation orbits.  The uniform layers' law is rotation
    invariant and the collapse commutes with rotation, so every state of
    an orbit has the same count, and the step from any state of an orbit
    hits each orbit equally often.  After j layers the table maps each
    orbit's least rotation to the number of tuples whose j collapsed
    layers lie anywhere in the orbit; a step runs the kernel from that
    representative against every eta.  Only the final orbits are expanded,
    each state getting count // |O|.  A collapsed tuple is nested exactly
    when its label vector has the spec's class counts, a rotation
    invariant, so that is checked once per orbit.
    """
    if spec.model != "tasep":
        raise ValueError("exact pushforward tables exist only for the ring model")
    n = spec.n
    orbits: dict[tuple[int, ...], tuple[int, ...]] = {}
    counts: dict[tuple[int, ...], int] = {(0,) * n: 1}
    for j, m in enumerate(spec.layer_sizes, start=1):
        etas = [c.occupied for c in enumerate_configs(n, m)]
        grown: dict[tuple[int, ...], int] = {}
        for labels, c in counts.items():
            # collapsed layers j-1, ..., 1: inner ones overwrite the labels
            inner = [(i, [int(0 < l <= i) for l in labels]) for i in range(j - 1, 0, -1)]
            for eta in etas:
                lab = [j if e else 0 for e in eta]
                for i, theta in inner:
                    kept = queue_collapse(theta, eta)[0]
                    lab = [i if t else l for t, l in zip(kept, lab)]
                rep = _least_rotation(tuple(lab), orbits)
                grown[rep] = grown.get(rep, 0) + c
        counts = grown
    for rep in counts:
        if tuple(rep.count(j) for j in range(1, len(spec.class_counts) + 1)) != spec.class_counts:
            raise RuntimeError(f"collapsed tuple is not nested: labels {rep}")
    return _spread_orbits(orbits, counts, math.prod(math.comb(n, m) for m in spec.layer_sizes))


def _spread_orbits(orbits: dict, mass: dict, denominator: int) -> StationaryTable:
    """The law giving every state of an orbit an equal share of its mass:
    `orbits` maps each state to its orbit's least rotation (the memo of
    _least_rotation), and `mass` each orbit to its probability times
    `denominator`, an int; orbits without mass are left out.  Raises when
    an orbit's mass is not a multiple of its size."""
    sizes = Counter(orbits.values())
    weights = {}
    for rep, m in mass.items():
        weights[rep], rem = divmod(m, sizes[rep])
        if rem:
            raise RuntimeError(f"mass {m} of orbit {rep} is not a multiple of its size")
    entries = ((s, weights[r]) for s, r in orbits.items() if r in weights)
    return StationaryTable(entries, denominator)


def check_draws(spec: ProcessSpec, draws: int = 1) -> None:
    """Refuse, before anything is drawn, `draws` invariant draws of spec
    charged more than the caps: one draw more than MAX_SAMPLE_SITES (or
    MAX_SAMPLE_POINTS), all of them more than MAX_DRAWS_CHARGE."""
    k = len(spec.class_counts)
    walks = k * (k + 1) // 2
    size, what, cap = (
        (spec.n, "sites", MAX_SAMPLE_SITES)
        if spec.model == "tasep"
        else (sum(spec.class_counts), "points", MAX_SAMPLE_POINTS)
    )
    charge = (size + WALK_OVERHEAD) * walks
    if charge > cap:
        raise ValueError(
            f"a draw would walk {size} {what} in each of {walks} walks, charged {charge} "
            f"with {WALK_OVERHEAD} more per walk, more than the cap of {cap}"
        )
    if charge * draws > MAX_DRAWS_CHARGE:
        raise ValueError(
            f"{draws} draws would be charged {charge * draws} {what} ({charge} each), "
            f"more than the cap of {MAX_DRAWS_CHARGE}"
        )


def sample_invariant(spec: ProcessSpec, rng) -> OrderedTuple:
    """One draw from the invariant law: independent uniform layers, then
    the k-fold collapse.  A draw charged more than its cap (check_draws) is
    refused before anything is drawn."""
    check_draws(spec)
    if spec.model == "tasep":
        layers = [random_config(spec.n, m, rng) for m in spec.layer_sizes]
    else:
        layers = [random_points(m, rng) for m in spec.layer_sizes]
    return collapse_k(layers)


# ---------------------------------------------------------------------------
# Hammersley dynamics
# ---------------------------------------------------------------------------


def _holds(pts: list[int], u: int) -> bool:
    """Whether the sorted list pts contains u."""
    i = bisect.bisect_left(pts, u)
    return i < len(pts) and pts[i] == u


def _had_apply_mark(layers: list[list[int]], u: int) -> None:
    """Move, in every layer, the nearest point strictly left of u onto u."""
    for pts in layers:
        if not pts:
            continue
        i = bisect.bisect_left(pts, u) - 1  # cyclic left neighbour
        pts.pop(i if i >= 0 else len(pts) - 1)
        bisect.insort(pts, u)


def had_simulate(
    initial: Sequence[PointConfig],
    horizon: float,
    rng,
    record: bool = False,
):
    """Continuous-time run of the coupled mark process up to the horizon.

    Marks arrive at rate one, uniform on the torus, and act on all layers
    at once; marks colliding with an existing point are redrawn.  The
    layers must be nested, as an OrderedTuple checks first.  Returns
    (final OrderedTuple, events) with events the (time, u) pairs when
    record is set, else their number.
    """
    initial = OrderedTuple(initial)
    check_horizon(horizon, 1)
    grid, layers = rescale([(c.grid, c.nums) for c in initial], POINT_GRID)
    scale = grid // POINT_GRID
    t = 0.0
    events, count = [], 0
    while True:
        t += rng.expovariate(1)
        if t >= horizon:
            final = [PointConfig.on_grid(grid, pts) for pts in layers]
            return OrderedTuple(final), events if record else count
        while True:
            bits = rng.getrandbits(53)
            u = bits * scale
            if not (layers and _holds(layers[-1], u)):
                break  # the last layer holds every point of the nested layers
        _had_apply_mark(layers, u)
        if record:
            events.append((t, Fraction(bits, POINT_GRID)))
        else:
            count += 1


def had_sample_chain(
    initial: Sequence[PointConfig],
    rng,
    n_samples: int,
    sample_gap: float,
    burn_in: float = 0.0,
):
    """Sample the coupled state every `sample_gap` time units after an
    initial burn-in; returns a list of OrderedTuples."""
    state = OrderedTuple(initial)
    if burn_in != 0:  # had_simulate refuses a negative or NaN burn-in
        state, _ = had_simulate(state, burn_in, rng)
    out = []
    for _ in range(n_samples):
        state, _ = had_simulate(state, sample_gap, rng)
        out.append(state)
    return out

