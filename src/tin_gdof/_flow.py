"""Exact min-cost flow over Python integers.

``min_cost_flow`` solves an uncapacitated transshipment problem by
successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
ch. 9).  Costs, flows and potentials are Python integers, so the result is
exact.

One round runs Dijkstra on reduced costs ``cost + p[tail] - p[head]``,
which the potentials p keep nonnegative on every residual step, from one
source: the first node that still has excess.  It stops at the first node
with a deficit that it settles, the target, at distance ``reach``.  The
path of predecessors to it is augmented by the largest amount that the
source's excess, the target's deficit and the flow on its backward steps
allow, and its cost is added to the total.  A source stays first until its
excess is gone; one that cannot reach any deficit is an error.

Residual steps.  Every arc is a forward step, always open.  Its backward
step is open only while the arc carries flow, so each node keeps the
backward steps that are open: a step is added when its arc's flow becomes
positive and removed when the flow returns to 0.  Closed steps are never
tested.  No backward step leads to a deficit: a path ends at the first
deficit node that its round settles, and no excess crosses 0, so no
deficit node is ever the tail of an arc that carries flow.

Potentials.  The textbook update for a single source moves every node v
by ``min(dist(v), reach)``.  Here only the settled nodes move, each by
``dist(v) - reach``: every node not settled has ``dist(v) >= reach``, so
the two updates differ by the same ``reach`` at every node.  A common
shift changes no reduced cost, so no later distance, tie or path changes,
and the returned potentials are optimal all the same.  The heap orders
nodes by (distance, index), so ties, and with them the returned
potentials, are deterministic.

The relaxation cut.  ``best`` is the smallest tentative distance that the
round has given a node with a deficit (infinite before the first), and a
relaxation whose tentative distance is strictly above ``best`` is skipped.
This changes nothing that the round returns.  Let ``reach`` be the round's
value without the cut: the smallest distance of a deficit node, since
Dijkstra settles nodes by nondecreasing distance.  A tentative distance is
never below the true one, so ``best >= reach`` at every moment, and every
skipped relaxation offered a distance ``nd > reach``.  Without the cut,
its heap entry has a key (nd, w) above the target's (reach, target) and is
never popped; and every later relaxation to w with a distance at most
``reach`` is below ``nd`` and at most ``best``, so it passes with and
without the cut alike.  Hence every node settled up to the target gets
the same distance and predecessor from the same relaxation, ties at
``reach`` included (the cut is strict), in the same order.  The settled
set, the target, the path and the potentials are those of the round
without the cut, bit for bit.
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
    # forward, and, keyed by arc, the open backward steps of the arcs into
    # the node that carry flow.
    forward: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    backward: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(n)]
    for a, (t, h, c) in enumerate(arcs):
        if c + p[t] - p[h] < 0:
            raise TinGdofError("initial potentials leave an arc with negative reduced cost")
        forward[t].append((a, h, c))
    excess = list(supply)
    sources = [v for v in range(n) if excess[v] > 0]
    flow = [0] * len(arcs)
    total = 0

    while sources:
        source = sources[0]
        dist: list = [math.inf] * n
        dist[source] = 0
        best = math.inf  # the smallest tentative distance of a deficit node
        # pred[w] = (node, arc, +1 forward or -1 backward) of w's path step.
        pred: list[tuple[int, int, int] | None] = [None] * n
        heap = [(0, source)]
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
                if nd < dist[w] and nd <= best:
                    dist[w] = nd
                    pred[w] = (v, a, 1)
                    heappush(heap, (nd, w))
                    if excess[w] < 0:
                        best = nd
            for a, w, c in backward[v].values():
                nd = base + c - p[w]
                if nd < dist[w] and nd <= best:
                    dist[w] = nd
                    pred[w] = (v, a, -1)
                    heappush(heap, (nd, w))
        else:
            raise TinGdofError("an excess cannot reach any deficit")

        target, reach = v, dv
        for u in settled:
            p[u] += dist[u] - reach

        path = []
        w = target
        while w != source:
            step = pred[w]
            path.append(step)
            w = step[0]
        delta = min(excess[source], -excess[target])
        for _, a, sign in path:
            if sign < 0 and flow[a] < delta:
                delta = flow[a]
        for _, a, sign in path:
            t, h, c = arcs[a]
            if sign > 0 and not flow[a]:
                backward[h][a] = (a, t, -c)
            flow[a] += sign * delta
            if not flow[a]:
                del backward[h][a]
            total += sign * delta * c
        excess[source] -= delta
        excess[target] += delta
        if not excess[source]:
            sources.pop(0)

    return total, p
