"""Seeded random instance generators for equivalence suites and property tests.

All draws come from ``random.Random`` with caller-provided seeds, on a
rational lattice (multiples of 1/denominator), so every downstream
computation stays exact and every run is reproducible.  The network
generators share one shape draw, and the convexity and optimality
generators share one constructive draw that differs only in how a cross
level may grow with the slot.  ``tests/test_sampling.py`` pins the draws.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable

from .model import (
    DecodingOrder, FiniteSnrSpec, NetworkSpec, Subnetwork, User, _link_power, _nominal_power,
    _with_levels,
)
from .potential import PowerAllocation
from .regions import GdofTuple


def _shape(rng, max_cells, max_users, cells, users_per_cell) -> tuple[int, list[int]]:
    """The cell count and per-cell user counts, drawn where not given."""
    if cells is None:
        cells = rng.randint(1, max_cells)
    if users_per_cell is None:
        users_per_cell = [rng.randint(1, max_users) for _ in range(cells)]
    return cells, list(users_per_cell)


def random_network(
    rng: random.Random,
    max_cells: int = 3,
    max_users: int = 2,
    denom: int = 20,
    max_level: int = 2,
    cells: int | None = None,
    users_per_cell: Iterable[int] | None = None,
) -> NetworkSpec:
    """A network with levels drawn uniformly from the lattice [0, max_level]."""
    cells, users_per_cell = _shape(rng, max_cells, max_users, cells, users_per_cell)
    alpha = {}
    for k in range(1, cells + 1):
        for l in range(1, users_per_cell[k - 1] + 1):
            for i in range(1, cells + 1):
                alpha[(User(k, l), i)] = Fraction(
                    rng.randint(0, max_level * denom), denom
                )
    return NetworkSpec.from_alpha(cells, users_per_cell, alpha)


def random_order(rng: random.Random, net: NetworkSpec, s: Subnetwork | None = None) -> DecodingOrder:
    """``list(enumerate_orders(net, s))[rng.randrange(count)]`` without the
    list of prod_i |S_i|! orders.  That enumeration is the product of each
    cell's permutations, the last cell fastest, so the index splits into
    one rank per cell, and each cell steps through its |S_i|! permutations."""
    active = net.active_slots(s)
    sizes = [math.factorial(len(slots)) for slots in active]
    index = rng.randrange(math.prod(sizes))
    per_cell = []
    for slots, size in zip(reversed(active), reversed(sizes)):
        index, rank = divmod(index, size)
        per_cell.append(next(itertools.islice(itertools.permutations(slots), rank, None)))
    return DecodingOrder(tuple(reversed(per_cell)))


def random_gdof_tuple(
    rng: random.Random, net: NetworkSpec, denom: int = 20, max_level: int = 2
) -> GdofTuple:
    """A nonnegative tuple on the lattice, biased toward small values and zeros."""
    d = {}
    for u in net.users:
        if rng.random() < 0.2:
            d[u] = Fraction(0)
        else:
            d[u] = Fraction(rng.randint(0, max_level * denom), 2 * denom)
    return GdofTuple(d)


def random_grid_allocation(
    rng: random.Random, net: NetworkSpec, step: Fraction = Fraction(1, 20), floor: int = -3
) -> PowerAllocation:
    """Power exponents drawn from the grid {0, -step, ..., floor}."""
    levels = int(Fraction(-floor) / step)
    exps = {u: -step * rng.randint(0, levels) for u in net.users}
    return PowerAllocation(exps, frozenset())


def _constructive_network(rng, shape, denom: int, optimality: bool) -> NetworkSpec:
    """A network meeting the convexity (or optimality) conditions.

    Directs are drawn in [1, 2] and sorted per cell.  Every cross level stays
    at or below ``cap``, half the weakest direct, which settles the cross-cell
    condition.  Toward each other cell, slot l's cross level is drawn above
    a base and at most its direct-level gap to slot l - 1 above it, which
    settles the per-cell condition.  For convexity the base is slot l - 1's
    cross level, so the headroom is cumulative.  For optimality the base is
    0, so each cross level is capped by its gap to every weaker slot, and
    the strict per-cell condition holds through its first branch.  A final
    exact check guards the construction; a failed draw is drawn again.
    """
    cells, users_per_cell = shape
    while True:
        directs = [
            sorted(Fraction(rng.randint(denom, 2 * denom), denom) for _ in range(n))
            for n in users_per_cell
        ]
        alpha = {
            (User(k, l), k): v
            for k, vals in enumerate(directs, start=1)
            for l, v in enumerate(vals, start=1)
        }
        cap = min(min(vals) for vals in directs) / 2
        for k, vals in enumerate(directs, start=1):
            for j in range(1, cells + 1):
                if j == k:
                    continue
                value = Fraction(0)
                for l, v in enumerate(vals):
                    base = Fraction(0) if optimality else value
                    gap = v - vals[l - 1] if l else cap
                    top = int(min(cap - base, gap) * denom)
                    value = base + Fraction(rng.randint(0, top), denom)
                    alpha[(User(k, l + 1), j)] = value
        net = NetworkSpec.from_alpha(cells, users_per_cell, alpha)
        if net.optimality_holds if optimality else net.convexity_holds:
            return net


def random_convexity_network(
    rng: random.Random,
    max_cells: int = 3,
    max_users: int = 2,
    denom: int = 20,
    cells: int | None = None,
    users_per_cell: Iterable[int] | None = None,
) -> NetworkSpec:
    """A network satisfying the convexity conditions, built constructively."""
    shape = _shape(rng, max_cells, max_users, cells, users_per_cell)
    return _constructive_network(rng, shape, denom, optimality=False)


def random_optimality_network(
    rng: random.Random,
    max_cells: int = 3,
    max_users: int = 2,
    denom: int = 20,
    cells: int | None = None,
    users_per_cell: Iterable[int] | None = None,
) -> NetworkSpec:
    """A network satisfying the optimality conditions, built constructively."""
    shape = _shape(rng, max_cells, max_users, cells, users_per_cell)
    return _constructive_network(rng, shape, denom, optimality=True)


def finite_snr_from_network(net: NetworkSpec, nominal_power: float) -> FiniteSnrSpec:
    """A finite-SNR description whose strength levels reproduce ``net``.

    Each link has a gain of magnitude P^(level/2) at a unit power budget,
    so it sits at or above the noise floor.  Its ``levels`` are ``net``
    itself, exactly, not re-derived from the float powers.
    """
    nominal_power = _nominal_power(nominal_power)
    powers = {}
    for u in net.users:
        for i in range(1, net.cells + 1):
            try:
                gain = nominal_power ** (float(net.alpha(u, i)) / 2.0)
            except OverflowError:
                gain = math.inf
            powers[(u, i)] = _link_power(u, i, gain, 1.0)
    return _with_levels(FiniteSnrSpec(nominal_power, powers), net)
