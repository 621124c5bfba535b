"""Exact min-cost flow over Python integers.

``min_cost_flow`` solves an uncapacitated transshipment problem by
successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
ch. 9).  Costs, flows and potentials are Python integers, so the result is
exact.

One round runs Dijkstra on reduced costs ``cost + p[tail] - p[head]``,
which the potentials p keep nonnegative on every residual step, from every
node with excess at once.  It stops at the first node with a deficit that
it settles, the target, at distance ``reach``.  The path of predecessors to
it is augmented by the largest amount that the source's excess, the
target's deficit and the flow on its backward steps allow, and its cost is
added to the total.  Then each settled node v moves its potential by
``dist(v) - reach``.  The textbook update moves every node by
``min(dist(v), reach)``; every node not settled has ``dist(v) >= reach``,
so the two differ by the same ``reach`` at every node.  A common shift
changes no reduced cost, so no later distance, tie or path changes, and
the returned potentials are optimal all the same.  The heap orders nodes
by (distance, index), so ties, and with them the returned potentials, are
deterministic.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Sequence

from .errors import TinGdofError


def min_cost_flow(
    n: int,
    arcs: Sequence[tuple[int, int, int]],
    supply: Sequence[int],
    potential: Sequence[int],
) -> tuple[int, list[int]]:
    """Minimum cost of routing ``supply`` over the uncapacitated ``arcs``.

    Nodes are ``0 .. n-1`` and each arc is ``(tail, head, cost)``.
    ``supply[v] > 0`` is an excess and ``supply[v] < 0`` a deficit; they must
    sum to 0.  ``potential`` must give every arc a nonnegative reduced cost
    ``cost + potential[tail] - potential[head]``, which also proves that no
    cycle has negative cost.  Returns the minimum cost and optimal
    potentials: every arc keeps a nonnegative reduced cost, and every arc
    that carries flow has reduced cost 0.
    """
    if sum(supply) != 0:
        raise TinGdofError("supplies and deficits do not balance")
    p = list(potential)
    # Residual steps out of each node, as (arc, other end, cost): every arc
    # forward, which is always open, and every arc into the node backward,
    # open while it carries flow.
    forward: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    backward: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a, (t, h, c) in enumerate(arcs):
        if c + p[t] - p[h] < 0:
            raise TinGdofError("initial potentials leave an arc with negative reduced cost")
        forward[t].append((a, h, c))
        backward[h].append((a, t, -c))
    excess = list(supply)
    sources = [v for v in range(n) if excess[v] > 0]
    flow = [0] * len(arcs)
    total = 0

    while sources:
        dist: list = [math.inf] * n
        # pred[w] = (node, arc, +1 forward or -1 backward) of w's path step.
        pred: list[tuple[int, int, int] | None] = [None] * n
        for v in sources:
            dist[v] = 0
        heap = [(0, v) for v in sources]  # ascending, so already a heap
        settled = []
        while heap:
            dv, v = heappop(heap)
            if dv != dist[v]:
                continue  # superseded by a shorter distance, already settled
            settled.append(v)
            if excess[v] < 0:
                break
            base = dv + p[v]
            for a, w, c in forward[v]:
                nd = base + c - p[w]
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = (v, a, 1)
                    heappush(heap, (nd, w))
            for a, w, c in backward[v]:
                if flow[a]:
                    nd = base + c - p[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        pred[w] = (v, a, -1)
                        heappush(heap, (nd, w))
        else:
            raise TinGdofError("an excess cannot reach any deficit")

        target, reach = v, dv
        for u in settled:
            p[u] += dist[u] - reach

        path = []
        source = target
        while pred[source] is not None:
            step = pred[source]
            path.append(step)
            source = step[0]
        delta = min(excess[source], -excess[target])
        for _, a, sign in path:
            if sign < 0 and flow[a] < delta:
                delta = flow[a]
        for _, a, sign in path:
            flow[a] += sign * delta
            total += sign * delta * arcs[a][2]
        excess[source] -= delta
        excess[target] += delta
        if not excess[source]:
            sources.remove(source)

    return total, p
