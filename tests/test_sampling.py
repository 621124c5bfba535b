"""Seeded instance generators: their draws are pinned, so every seeded test
keeps its networks when the generators are refactored."""

import hashlib
import random
import time

import pytest

from tin_gdof import sampling
from tin_gdof.model import enumerate_orders

CASES = {
    "default": {},
    "wide": {"max_cells": 4, "max_users": 3},
    "fixed-shape": {"cells": 3, "users_per_cell": [3, 1, 2]},
    "fine-lattice": {"denom": 7, "cells": 2},
}

#: Recorded from the generators before they shared their shape draw and
#: retry loop: ``digest`` of five networks drawn in a row from
#: ``random.Random(seed)``, and of that generator's final state.
EXPECTED = {
    ("random_network", "default", 1): "3b4d1efa15cbc8d7",
    ("random_network", "default", 7): "589816ef5144c94d",
    ("random_network", "wide", 1): "eb17ed1830e6e37a",
    ("random_network", "wide", 7): "640bba8cb96da8c6",
    ("random_network", "fixed-shape", 1): "8136be3bf7f1acc0",
    ("random_network", "fixed-shape", 7): "416d10df7b49a1c8",
    ("random_network", "fine-lattice", 1): "590b42dc63d7055b",
    ("random_network", "fine-lattice", 7): "0864973d7e2e9dbb",
    ("random_convexity_network", "default", 1): "583df8827e22ddb0",
    ("random_convexity_network", "default", 7): "a0d94d6cf3d0681d",
    ("random_convexity_network", "wide", 1): "2fa19c41e112e0fd",
    ("random_convexity_network", "wide", 7): "b3fb7cc32fad2210",
    ("random_convexity_network", "fixed-shape", 1): "8dd5e0196d6ec1af",
    ("random_convexity_network", "fixed-shape", 7): "f653c22460428199",
    ("random_convexity_network", "fine-lattice", 1): "38a3b47179378798",
    ("random_convexity_network", "fine-lattice", 7): "39c269bbd591d854",
    ("random_optimality_network", "default", 1): "0644726154bf49b8",
    ("random_optimality_network", "default", 7): "23c331efbd68dfbe",
    ("random_optimality_network", "wide", 1): "ae6a0d4e9180ef28",
    ("random_optimality_network", "wide", 7): "69869141bf02ed13",
    ("random_optimality_network", "fixed-shape", 1): "cd6d626eb16ce1e7",
    ("random_optimality_network", "fixed-shape", 7): "7be9071a93b0a682",
    ("random_optimality_network", "fine-lattice", 1): "014181374b8eab7d",
    ("random_optimality_network", "fine-lattice", 7): "39c269bbd591d854",
}


def digest(nets, rng: random.Random) -> str:
    h = hashlib.sha256()
    for net in nets:
        h.update(repr((net.users_per_cell, net.slot_provenance)).encode())
        levels = sorted(
            (u.cell, u.slot, i, str(net.alpha(u, i)))
            for u in net.users
            for i in range(1, net.cells + 1)
        )
        h.update(repr(levels).encode())
    h.update(repr(rng.getstate()).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("sampler, case, seed", sorted(EXPECTED))
def test_seeded_samplers_draw_pinned_networks(sampler, case, seed):
    rng = random.Random(seed)
    nets = [getattr(sampling, sampler)(rng, **CASES[case]) for _ in range(5)]
    assert digest(nets, rng) == EXPECTED[(sampler, case, seed)]


def test_random_order_is_the_drawn_index_of_the_enumeration():
    # One ``randrange`` over the order count, unranked in the order of
    # ``enumerate_orders``: the same order and the same generator state as
    # indexing the full list.
    rng = random.Random(21)
    for _ in range(40):
        net = sampling.random_network(rng, max_cells=3, max_users=4)
        s = frozenset(u for u in net.users if rng.random() < 0.8)
        for scope in (None, s):
            seed = rng.random()
            drawn, listed = random.Random(seed), random.Random(seed)
            orders = list(enumerate_orders(net, scope))
            assert sampling.random_order(drawn, net, scope) == orders[listed.randrange(len(orders))]
            assert drawn.getstate() == listed.getstate()


def test_random_order_does_not_list_the_orders():
    # 4 cells of 5 users have 120**4, about 2e8, orders.
    net = sampling.random_network(random.Random(5), cells=4, users_per_cell=[5] * 4)
    start = time.perf_counter()
    order = sampling.random_order(random.Random(6), net)
    assert time.perf_counter() - start < 1.0
    assert order.validate(net) == net.full_subnetwork
