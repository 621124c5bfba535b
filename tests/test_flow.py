"""The integer min-cost flow (``tin_gdof._flow``) on its own: its three
input checks, and random transshipment problems against networkx, with the
returned potentials checked as an LP-duality certificate."""

import itertools
import random

import pytest

from tin_gdof._flow import min_cost_flow
from tin_gdof.errors import TinGdofError


@pytest.mark.parametrize(
    "n, arcs, supply, potential, message",
    [
        pytest.param(2, [(0, 1, 1)], [2, -1], [0, 0], "do not balance", id="unbalanced"),
        pytest.param(
            2, [(0, 1, -1)], [1, -1], [0, 0], "negative reduced cost", id="negative-reduced-cost"
        ),
        pytest.param(
            3, [(1, 0, 0), (2, 0, 0)], [1, -1, 0], [0, 0, 0], "cannot reach any deficit",
            id="unreachable-deficit",
        ),
    ],
)
def test_flow_input_checks(n, arcs, supply, potential, message):
    with pytest.raises(TinGdofError, match=message):
        min_cost_flow(n, arcs, supply, potential)


def random_transshipment(rng: random.Random, n: int):
    """A strongly connected digraph on n nodes, so every excess reaches every
    deficit, with arc costs of either sign made from random potentials and
    nonnegative reduced costs; balanced supplies, zeros included."""
    potential = [rng.randint(-20, 20) for _ in range(n)]
    ring = list(range(n))
    rng.shuffle(ring)
    pairs = {(ring[i - 1], ring[i]) for i in range(n)} if n > 1 else set()
    pairs |= {pq for pq in itertools.permutations(range(n), 2) if rng.random() < 0.3}
    arcs = [(t, h, rng.randint(0, 15) + potential[h] - potential[t]) for t, h in sorted(pairs)]
    supply = [rng.randint(-6, 6) for _ in range(n)]
    supply[rng.randrange(n)] -= sum(supply)
    return arcs, supply, potential


def networkx_cost(n, arcs, supply):
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    for v in range(n):
        g.add_node(v, demand=-supply[v])
    for t, h, c in arcs:
        g.add_edge(t, h, weight=c)
    cost, _ = nx.network_simplex(g)
    return cost


def test_flow_optimum_matches_networkx_with_a_duality_certificate():
    pytest.importorskip("networkx")
    rng = random.Random(2201)
    for _ in range(300):
        n = rng.randint(2, 12)
        arcs, supply, potential = random_transshipment(rng, n)
        cost, p = min_cost_flow(n, arcs, supply, potential)
        assert cost == networkx_cost(n, arcs, supply)
        # Dual feasibility (every reduced cost >= 0) and equal objectives:
        # the potentials prove the cost optimal without the primal flow.
        assert all(c + p[t] - p[h] >= 0 for t, h, c in arcs)
        assert cost == -sum(s * x for s, x in zip(supply, p))


def test_flow_with_no_supply_costs_nothing():
    assert min_cost_flow(3, [(0, 1, 2), (1, 2, 3)], [0, 0, 0], [0, 0, 0]) == (0, [0, 0, 0])
