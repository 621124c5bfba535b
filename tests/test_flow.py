"""The integer min-cost flow (``tin_gdof._flow``) on its own: its three
input checks, and random transshipment problems against networkx and
against a multi-source oracle kept here, with the returned potentials
checked as an LP-duality certificate."""

import itertools
import math
import random
from heapq import heappop, heappush

import pytest

from tin_gdof import _flow
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
        # Sources 0 and 2: the first reaches its deficit, the second none.
        pytest.param(
            4, [(0, 1, 0), (3, 2, 0)], [1, -1, 1, -1], [0, 0, 0, 0], "cannot reach any deficit",
            id="stranded-second-source",
        ),
        # Both sources reach only node 1, whose deficit the first one fills.
        pytest.param(
            4, [(0, 1, 0), (2, 1, 0)], [1, -1, 1, -1], [0, 0, 0, 0], "cannot reach any deficit",
            id="second-source-finds-its-deficit-filled",
        ),
    ],
)
def test_flow_input_checks(n, arcs, supply, potential, message):
    with pytest.raises(TinGdofError, match=message):
        min_cost_flow(n, arcs, supply, potential)


def multi_source_min_cost_flow(n, arcs, supply, potential):
    """The oracle: successive shortest paths whose every round runs Dijkstra
    from all nodes with excess at once and tests every backward step, open
    or not, against the flow of its arc.  It shares no loop with
    ``min_cost_flow``; it returns the same (cost, potentials) contract."""
    p = list(potential)
    out = [[] for _ in range(n)]
    for a, (t, h, c) in enumerate(arcs):
        out[t].append((a, h, c, 1))
        out[h].append((a, t, -c, -1))
    excess = list(supply)
    flow = [0] * len(arcs)
    total = 0
    while any(x > 0 for x in excess):
        dist = [math.inf] * n
        pred = [None] * n
        heap = []
        for v in range(n):
            if excess[v] > 0:
                dist[v] = 0
                heappush(heap, (0, v))
        settled = []
        target = None
        while heap:
            dv, v = heappop(heap)
            if dv != dist[v]:
                continue
            settled.append(v)
            if excess[v] < 0:
                target = v
                break
            for a, w, c, sign in out[v]:
                if sign < 0 and not flow[a]:
                    continue
                nd = dv + c + p[v] - p[w]
                if nd < dist[w]:
                    dist[w], pred[w] = nd, (v, a, sign)
                    heappush(heap, (nd, w))
        if target is None:
            raise TinGdofError("an excess cannot reach any deficit")
        for u in settled:
            p[u] += dist[u] - dist[target]
        path, source = [], target
        while pred[source] is not None:
            path.append(pred[source])
            source = pred[source][0]
        delta = min([excess[source], -excess[target]]
                    + [flow[a] for _, a, sign in path if sign < 0])
        for _, a, sign in path:
            flow[a] += sign * delta
            total += sign * delta * arcs[a][2]
        excess[source] -= delta
        excess[target] += delta
    return total, p


def bounded_min_cost_flow(monkeypatch, n, arcs, supply, potential):
    """``min_cost_flow``, stopped with an assertion past its work bound, so
    that a solver that stops making progress fails instead of hanging.
    Every round augments by a positive integer, so there are at most as
    many rounds as units of excess.  A round pops its source and at most one
    heap entry per push, and it pushes at most once per residual step that
    it scans: each of its settled nodes scans its forward steps and its
    open backward steps once, at most 2 |arcs| in all."""
    budget = [sum(s for s in supply if s > 0) * (1 + 2 * len(arcs))]

    def pop(heap):
        budget[0] -= 1
        assert budget[0] >= 0, "min_cost_flow passed its work bound"
        return heappop(heap)

    monkeypatch.setattr(_flow, "heappop", pop)
    return min_cost_flow(n, arcs, supply, potential)


def assert_certificate(arcs, supply, cost, p):
    """Dual feasibility (every reduced cost >= 0) and equal objectives: the
    potentials prove the cost optimal without the primal flow."""
    assert all(c + p[t] - p[h] >= 0 for t, h, c in arcs)
    assert cost == -sum(s * x for s, x in zip(supply, p))


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


def reachable(n, arcs, start):
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for t, h, _ in arcs:
            if t == v and h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def random_layered_transshipment(rng: random.Random, n: int):
    """A feasible problem on a digraph that is not strongly connected: nodes
    fall into two to four layers, with arcs both ways inside a layer and
    only to later layers between them.  The supplies are a sum of two to
    five path flows, each from a node to one it reaches, so there are
    several sources and deficits and every excess can be routed."""
    potential = [rng.randint(-20, 20) for _ in range(n)]
    layer = sorted(rng.randrange(rng.randint(2, 4)) for _ in range(n))
    layer[0], layer[-1] = 0, max(layer[-1], 1)
    nodes = list(range(n))
    rng.shuffle(nodes)
    of = dict(zip(nodes, layer))
    pairs = [(t, h) for t, h in itertools.permutations(range(n), 2)
             if of[t] <= of[h] and rng.random() < 0.35]
    arcs = [(t, h, rng.randint(0, 15) + potential[h] - potential[t]) for t, h in pairs]
    supply = [0] * n
    for _ in range(rng.randint(2, 5)):
        u = rng.randrange(n)
        ends = sorted(reachable(n, arcs, u) - {u})
        if ends:
            amount = rng.randint(1, 6)
            supply[u] += amount
            supply[rng.choice(ends)] -= amount
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


def test_flow_optimum_matches_networkx_with_a_duality_certificate(monkeypatch):
    pytest.importorskip("networkx")
    rng = random.Random(2201)
    for _ in range(300):
        n = rng.randint(2, 12)
        arcs, supply, potential = random_transshipment(rng, n)
        cost, p = bounded_min_cost_flow(monkeypatch, n, arcs, supply, potential)
        assert cost == networkx_cost(n, arcs, supply)
        assert_certificate(arcs, supply, cost, p)


@pytest.mark.parametrize("make", [random_transshipment, random_layered_transshipment])
def test_flow_optimum_matches_the_multi_source_oracle(monkeypatch, make):
    rng = random.Random(3101)
    several = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        arcs, supply, potential = make(rng, n)
        cost, p = bounded_min_cost_flow(monkeypatch, n, arcs, supply, potential)
        want, q = multi_source_min_cost_flow(n, arcs, supply, potential)
        assert cost == want
        assert_certificate(arcs, supply, cost, p)
        assert_certificate(arcs, supply, want, q)
        if sum(s > 0 for s in supply) > 1 and sum(s < 0 for s in supply) > 1:
            several += 1
    assert several > 100


def test_flow_on_graphs_that_are_not_strongly_connected_matches_networkx(monkeypatch):
    pytest.importorskip("networkx")
    rng = random.Random(3102)
    for _ in range(200):
        n = rng.randint(3, 12)
        arcs, supply, potential = random_layered_transshipment(rng, n)
        assert any(reachable(n, arcs, v) != set(range(n)) for v in range(n))
        cost, p = bounded_min_cost_flow(monkeypatch, n, arcs, supply, potential)
        assert cost == networkx_cost(n, arcs, supply)
        assert_certificate(arcs, supply, cost, p)


def test_flow_with_no_supply_costs_nothing():
    assert min_cost_flow(3, [(0, 1, 2), (1, 2, 3)], [0, 0, 0], [0, 0, 0]) == (0, [0, 0, 0])
