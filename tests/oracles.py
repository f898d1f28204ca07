"""Independent routes that tests hold the package to, kept out of the
package because no package code needs them."""

from __future__ import annotations

from typing import Sequence

from toruscollapse.dynamics import bond_update


def tasep_state_frequencies(
    initial: Sequence[int], k: int, steps: int, rng
) -> dict[tuple[int, ...], float]:
    """Visit frequencies of the uniformized chain (one uniform bond per
    step, self-loops counted); converges to the stationary law, and is kept
    as the simulation oracle for the exact tables."""
    labels = tuple(initial)
    n = len(labels)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(steps):
        x = rng.randrange(n)
        labels = bond_update(labels, x, k)
        counts[labels] = counts.get(labels, 0) + 1
    return {s: c / steps for s, c in counts.items()}
