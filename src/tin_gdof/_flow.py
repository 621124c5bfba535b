"""Exact min-cost flow over Python integers.

``min_cost_flow`` solves an uncapacitated transshipment problem by
successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
ch. 9).  Each round runs Dijkstra on reduced costs from every node with
excess, augments along the path to the nearest node with a deficit, and
moves the node potentials by the distances found.  Costs, flows and
potentials are Python integers, so the result is exact.  The heap orders
nodes by (distance, index), so ties, and with them the returned potentials,
are deterministic.
"""

from __future__ import annotations

import heapq
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
    if any(c + p[t] - p[h] < 0 for t, h, c in arcs):
        raise TinGdofError("initial potentials leave an arc with negative reduced cost")
    excess = list(supply)
    flow = [0] * len(arcs)
    # Residual steps out of each node: every arc forward, which is always
    # open, and every arc into the node backward, open while it carries flow.
    steps: list[list[tuple[int, bool, int, int]]] = [[] for _ in range(n)]
    for a, (t, h, c) in enumerate(arcs):
        steps[t].append((a, True, h, c))
        steps[h].append((a, False, t, -c))

    while any(e > 0 for e in excess):
        dist: list[int | None] = [None] * n
        pred: list[tuple[int, bool] | None] = [None] * n
        heap = []
        for v in range(n):
            if excess[v] > 0:
                dist[v] = 0
                heap.append((0, v))
        settled = [False] * n
        target = None
        while heap:
            dv, v = heapq.heappop(heap)
            if settled[v]:
                continue
            settled[v] = True
            if excess[v] < 0:
                target = v
                break
            base = dv + p[v]
            for a, forward, w, c in steps[v]:
                if forward or flow[a]:
                    nd = base + c - p[w]
                    if dist[w] is None or nd < dist[w]:
                        dist[w] = nd
                        pred[w] = (a, forward)
                        heapq.heappush(heap, (nd, w))
        if target is None:
            raise TinGdofError("an excess cannot reach any deficit")

        reach = dist[target]
        for v in range(n):
            p[v] += reach if dist[v] is None else min(dist[v], reach)

        path = []
        source = target
        while pred[source] is not None:
            a, forward = pred[source]
            path.append((a, forward))
            source = arcs[a][0] if forward else arcs[a][1]
        delta = min(
            [excess[source], -excess[target]] + [flow[a] for a, forward in path if not forward]
        )
        for a, forward in path:
            flow[a] += delta if forward else -delta
        excess[source] -= delta
        excess[target] += delta

    return sum(c * f for (_, _, c), f in zip(arcs, flow)), p
