"""Seeded random instance generators for equivalence suites and property tests.

All draws come from ``random.Random`` with caller-provided seeds, on a
rational lattice (multiples of 1/denominator), so every downstream
computation stays exact and every run is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .conditions import evaluate_conditions
from .errors import NetworkSpecError
from .model import (
    DecodingOrder, FiniteSnrSpec, NetworkSpec, Subnetwork, User, _with_levels, enumerate_orders
)
from .potential import PowerAllocation
from .regions import GdofTuple


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
    if cells is None:
        cells = rng.randint(1, max_cells)
    if users_per_cell is None:
        users_per_cell = [rng.randint(1, max_users) for _ in range(cells)]
    users_per_cell = list(users_per_cell)
    alpha = {}
    for k in range(1, cells + 1):
        for l in range(1, users_per_cell[k - 1] + 1):
            for i in range(1, cells + 1):
                alpha[(User(k, l), i)] = Fraction(
                    rng.randint(0, max_level * denom), denom
                )
    return NetworkSpec.from_alpha(cells, users_per_cell, alpha)


def random_order(rng: random.Random, net: NetworkSpec, s: Subnetwork | None = None) -> DecodingOrder:
    orders = list(enumerate_orders(net, s))
    return orders[rng.randrange(len(orders))]


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


def _sorted_directs(rng: random.Random, n: int, denom: int, lo: Fraction, hi: Fraction):
    vals = sorted(
        Fraction(rng.randint(int(lo * denom), int(hi * denom)), denom) for _ in range(n)
    )
    return vals


def random_convexity_network(
    rng: random.Random,
    max_cells: int = 3,
    max_users: int = 2,
    denom: int = 20,
    cells: int | None = None,
    users_per_cell: Iterable[int] | None = None,
) -> NetworkSpec:
    """A network satisfying the convexity conditions, built constructively.

    Directs are drawn in [1, 2]; every cross level stays at or below half the
    weakest direct (which settles the cross-cell condition), and cross levels
    grow with the user index by at most the direct-level increments (which
    settles the per-cell condition).  A final exact check guards the
    construction.
    """
    if cells is None:
        cells = rng.randint(1, max_cells)
    if users_per_cell is None:
        users_per_cell = [rng.randint(1, max_users) for _ in range(cells)]
    users_per_cell = list(users_per_cell)
    while True:
        alpha = {}
        directs = {}
        for k in range(1, cells + 1):
            vals = _sorted_directs(rng, users_per_cell[k - 1], denom, Fraction(1), Fraction(2))
            directs[k] = vals
            for l, v in enumerate(vals, start=1):
                alpha[(User(k, l), k)] = v
        cap = min(v for vals in directs.values() for v in vals) / 2
        for k in range(1, cells + 1):
            for j in range(1, cells + 1):
                if j == k:
                    continue
                prev = Fraction(0)
                for l in range(1, users_per_cell[k - 1] + 1):
                    if l == 1:
                        value = Fraction(rng.randint(0, int(cap * denom)), denom)
                    else:
                        gap = directs[k][l - 1] - directs[k][l - 2]
                        headroom = min(cap - prev, gap)
                        value = prev + Fraction(
                            rng.randint(0, max(0, int(headroom * denom))), denom
                        )
                    alpha[(User(k, l), j)] = value
                    prev = value
        net = NetworkSpec.from_alpha(cells, users_per_cell, alpha)
        if evaluate_conditions(net).convexity_holds:
            return net


def random_optimality_network(
    rng: random.Random,
    max_cells: int = 3,
    max_users: int = 2,
    denom: int = 20,
    cells: int | None = None,
    users_per_cell: Iterable[int] | None = None,
) -> NetworkSpec:
    """A network satisfying the optimality conditions, built constructively.

    As for the convexity sampler, but a stronger user's cross level toward
    any cell is additionally capped by its direct-level gap to each weaker
    user, which settles the strict per-cell condition through its first
    branch.
    """
    if cells is None:
        cells = rng.randint(1, max_cells)
    if users_per_cell is None:
        users_per_cell = [rng.randint(1, max_users) for _ in range(cells)]
    users_per_cell = list(users_per_cell)
    while True:
        alpha = {}
        directs = {}
        for k in range(1, cells + 1):
            vals = _sorted_directs(rng, users_per_cell[k - 1], denom, Fraction(1), Fraction(2))
            directs[k] = vals
            for l, v in enumerate(vals, start=1):
                alpha[(User(k, l), k)] = v
        cap = min(v for vals in directs.values() for v in vals) / 2
        for k in range(1, cells + 1):
            for j in range(1, cells + 1):
                if j == k:
                    continue
                for l in range(1, users_per_cell[k - 1] + 1):
                    limit = cap
                    for l_prime in range(1, l):
                        limit = min(limit, directs[k][l - 1] - directs[k][l_prime - 1])
                    limit = max(limit, Fraction(0))
                    alpha[(User(k, l), j)] = Fraction(
                        rng.randint(0, int(limit * denom)), denom
                    )
        net = NetworkSpec.from_alpha(cells, users_per_cell, alpha)
        if evaluate_conditions(net).optimality_holds:
            return net


def finite_snr_from_network(net: NetworkSpec, nominal_power: float) -> FiniteSnrSpec:
    """A finite-SNR description whose strength levels reproduce ``net``.

    Unit power budgets; gain magnitudes set to P^(level/2) so every link sits
    at or above the noise floor.  Its ``levels`` are ``net`` itself, exactly,
    not re-derived from the float gains.
    """
    gains = {}
    powers = {u: 1.0 for u in net.users}
    for u in net.users:
        for i in range(1, net.cells + 1):
            try:
                gains[(u, i)] = complex(nominal_power ** (float(net.alpha(u, i)) / 2.0), 0.0)
            except OverflowError:
                raise NetworkSpecError(
                    f"link {u}->rx{i} has a power beyond the float range"
                ) from None
    return _with_levels(FiniteSnrSpec(nominal_power, gains, powers), net)
