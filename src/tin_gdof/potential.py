"""Potential-graph membership test and power-allocation recovery.

A candidate GDoF tuple is achievable under a fixed decoding order iff a
weighted digraph built from the network levels and the tuple has no directed
circuit of negative length.  The graph has one vertex per active user plus a
ground vertex; shortest-path distances from ground are then valid transmit
power exponents.

The five edge families:

* INTRA_FORWARD  (earlier decode position -> later):  alpha_tail - d_tail
* INTRA_BACKWARD (later -> earlier):                  alpha_tail - alpha_head - d_tail
* CROSS          (user -> user of another cell):      alpha_tail - cross(head -> tail cell) - d_tail
* TO_GROUND:                                          alpha_tail - d_tail
* FROM_GROUND:                                        0

where ``alpha_x`` is the direct level of x.  Which direction of an intra-cell
pair is "forward" is fixed by the decode positions, never by comparing
levels, so ties in levels cannot change the family.

The graph is written once, by ``potential_skeleton``: per ``(net, order,
s)``, the edges as vertex indices and integer lengths at d = 0 over
``NetworkSpec.integer_levels``' denominator.  It takes a scope that
``DecodingOrder.validate`` has already checked: ``build_potential_graph``
checks once per graph, and ``polyhedral_region`` once per region before
``analysis.flow_network`` builds on it.  A tuple d enters as one
integer shift of the edges out of each user, and one relaxation, ``_relax``,
serves every length type.  ``skeleton_distances`` relaxes the shifted edges
on Python ints.  Region set-up uses it: ``analysis.flow_network`` (the arcs
and start potentials of ``max_weighted_gdof``) and the corner loop of
``analysis.gap_report``, where ``Fraction`` relaxation was most of the
cost.  ``build_potential_graph`` gives the same edges as ``Edge`` objects
with ``Fraction`` lengths and families, which ``feasible_by_negative_cycle``
and ``recover_power_allocation`` relax in ``Fraction``: the readable form,
used by ``general_membership``, CLI ``membership --order`` and
``oracle-verify``.  ``general_membership`` stays on ``Fraction`` lengths
until the benchmark worker's memory is bounded (ROADMAP item 1): routed
through the integer pass, it answered about four times as many queries,
and the worker, which keeps every latency, grew past the benchmark's
memory bound.  ``tests/test_potential.py`` keeps an independent
construction from ``net.direct`` and ``net.alpha``, with a dict-based
relaxation, as the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .errors import GuardExceededError, InfeasibleAllocationError, NetworkSpecError, TinGdofError
from .model import DecodingOrder, NetworkSpec, Subnetwork, User, _user, rationalize
from .regions import GdofTuple, enumerate_cyclic_sequences

#: Ground vertex sentinel; cells are 1-based so (0, 0) is never a real user.
GROUND = User(0, 0)

#: Exhaustive circuit enumeration refuses graphs with more vertices than this.
CIRCUIT_ENUMERATION_MAX_VERTICES = 9


class EdgeFamily(Enum):
    INTRA_FORWARD = "intra_forward"
    INTRA_BACKWARD = "intra_backward"
    CROSS = "cross"
    FROM_GROUND = "from_ground"
    TO_GROUND = "to_ground"


@dataclass(frozen=True)
class Edge:
    tail: User
    head: User
    length: Fraction
    family: EdgeFamily


@dataclass(frozen=True)
class PotentialGraph:
    """Complete digraph over ground + active users with exact edge lengths."""

    vertices: tuple[User, ...]
    edges: tuple[Edge, ...]

    def length(self, tail: User, head: User) -> Fraction:
        return self._length_map[(tail, head)]

    @cached_property
    def _length_map(self) -> Mapping:
        return {(e.tail, e.head): e.length for e in self.edges}


@dataclass(frozen=True)
class Circuit:
    """A simple directed circuit, stored as its vertex cycle (no repeats)."""

    vertices: tuple[User, ...]
    length: Fraction


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Circuit | None = None

    def __bool__(self) -> bool:
        return self.feasible


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit power exponents (<= 0), each through ``rationalize``;
    deactivated users are marked off."""

    exponents: Mapping
    off: frozenset

    def __post_init__(self):
        exps = {_user(u): rationalize(v) for u, v in self.exponents.items()}
        if any(v > 0 for v in exps.values()):
            raise NetworkSpecError("power exponents must be <= 0")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "off", frozenset(map(_user, self.off)))
        if exps.keys() & self.off:
            raise NetworkSpecError("a user cannot be both powered and off")

    def is_off(self, user: User) -> bool:
        return user in self.off

    def __getitem__(self, user: User) -> Fraction:
        return self.exponents[user]


def build_potential_graph(
    net: NetworkSpec,
    order: DecodingOrder,
    s: Subnetwork | None = None,
    d: GdofTuple | None = None,
) -> PotentialGraph:
    """Potential graph of ``d`` over the active users of ``s``.

    ``d`` must vanish outside ``s``; deactivated users are removed from the
    graph entirely.  The scope is checked here, once, by
    ``DecodingOrder.validate``.  The edges are those of
    ``potential_skeleton`` at ``d``, each with its ``Fraction`` length and
    the family that its ends and their decode positions give.
    """
    sk = potential_skeleton(net, order, order.validate(net, s))
    den, edges = _shifted(sk, d)
    v = sk.vertices
    position = {u: order.slots(u.cell).index(u.slot) for u in v[1:]}

    def family(t: int, h: int) -> EdgeFamily:
        if t == 0:
            return EdgeFamily.FROM_GROUND
        if h == 0:
            return EdgeFamily.TO_GROUND
        if v[t].cell != v[h].cell:
            return EdgeFamily.CROSS
        if position[v[t]] < position[v[h]]:
            return EdgeFamily.INTRA_FORWARD
        return EdgeFamily.INTRA_BACKWARD

    return PotentialGraph(
        v, tuple(Edge(v[t], v[h], Fraction(c, den), family(t, h)) for t, h, c in edges)
    )


def _relax(vertices: tuple[User, ...], edges, den: int = 1) -> list | Circuit:
    """Shortest-path lengths from ground, vertex 0, or a negative simple circuit.

    ``edges`` are ``(tail, head, length)`` over indices into ``vertices``,
    with exact lengths (``int`` or ``Fraction``) in units of ``1 / den``.
    Rounds of relaxation over every edge; each vertex keeps the edge that
    last lowered its distance d, its parent.  A parent edge (u, v) keeps
    d(v) >= d(u) + len(u, v), since d(u) only falls afterwards.  Hence
    (Cherkassky & Goldberg, "Negative-cycle detection algorithms", Math.
    Programming 1999):

    * Every cycle of the parent graph is negative: the edge (u, v) that
      closed it lowered d(v), which made the next edge (v, w) strict, and
      the inequalities sum around the cycle to 0 > its length.
    * If round n still lowers d(v), the parent chain from v meets a cycle.
      Round n - 1 left d(v) at most the length of every simple path from
      ground to v (at most n - 1 edges), and round n went below that.  A
      chain ending at ground, the one parentless vertex, would sum to such
      a path of length at most d(v).

    The circuit's length is summed again and checked negative.
    """
    n = len(vertices)
    dist: list = [None] * n
    dist[0] = 0
    parent: list = [None] * n
    for _ in range(n):
        lowered = None
        for e in edges:
            dt = dist[e[0]]
            if dt is None:
                continue
            cand = dt + e[2]
            dh = dist[e[1]]
            if dh is None or cand < dh:
                dist[e[1]] = cand
                parent[e[1]] = e
                lowered = e[1]
        if lowered is None:
            return dist

    # Round n lowered a distance: follow the parent chain until it repeats.
    chain, v = [], lowered
    while v not in chain:
        chain.append(v)
        v = parent[v][0]
    cycle = chain[chain.index(v):][::-1]
    length = Fraction(sum(parent[i][2] for i in cycle), den)
    circuit = tuple(vertices[i] for i in cycle)
    if length >= 0:
        raise TinGdofError(f"parent-graph cycle {circuit} has length {length} >= 0")
    return Circuit(circuit, length)


def _bellman_ford(g: PotentialGraph) -> dict[User, Fraction] | Circuit:
    """Shortest-path lengths from ground, or a negative simple circuit:
    ``_relax`` over the edges of ``g``, in their order."""
    index = {u: i for i, u in enumerate(g.vertices)}
    result = _relax(g.vertices, [(index[e.tail], index[e.head], e.length) for e in g.edges])
    return result if isinstance(result, Circuit) else dict(zip(g.vertices, result))


def feasible_by_negative_cycle(g: PotentialGraph) -> FeasibilityResult:
    """Feasible iff no directed circuit of ``g`` has negative total length.

    Decided by one Bellman-Ford pass from ground; on failure the witness is
    a concrete simple circuit with strictly negative length.
    """
    result = _bellman_ford(g)
    witness = result if isinstance(result, Circuit) else None
    return FeasibilityResult(witness is None, witness)


def recover_power_allocation(g: PotentialGraph, off: frozenset = frozenset()) -> PowerAllocation:
    """Ground-shortest-path potentials as transmit power exponents.

    The returned exponents are <= 0 (the zero-length ground edges cap them)
    and satisfy every difference constraint the graph encodes, so the
    achievable-GDoF evaluator dominates the tuple the graph was built for.
    ``off`` marks the deactivated users.  On an infeasible graph it raises
    ``InfeasibleAllocationError`` whose ``circuit`` is a negative circuit.
    """
    result = _bellman_ford(g)
    if isinstance(result, Circuit):
        raise InfeasibleAllocationError(
            f"no feasible power allocation: circuit {result.vertices} has length {result.length}",
            result,
        )
    return PowerAllocation({v: result[v] for v in g.vertices if v != GROUND}, off)


class PotentialSkeleton(NamedTuple):
    """The potential graph of a ``(net, order, s)`` over integers, d left out.

    ``vertices`` are ground, then the sorted active users.  ``edges`` are
    ``(tail, head, length)``: vertex indices and the length at d = 0, an
    integer over ``den``, the levels' common denominator.  They come cell
    by cell, each decode-ordered pair of a cell as its forward then its
    backward edge, then the cross edges, then each user's edges from and
    to ground.  A tuple d lowers every edge out of a user u by d_u, and no
    edge out of ground.
    """

    den: int
    vertices: tuple[User, ...]
    edges: tuple[tuple[int, int, int], ...]


def potential_skeleton(
    net: NetworkSpec, order: DecodingOrder, s: Subnetwork | None = None
) -> PotentialSkeleton:
    """The ``PotentialSkeleton`` of ``(net, order, s)``, built from
    ``net.integer_levels``: the one place that writes the edge families.

    Takes a checked scope and checks nothing: ``s`` (None for every user)
    and ``order`` as ``DecodingOrder.validate`` returns and checks them.
    Its callers are ``build_potential_graph`` after its check, the flow
    network of a region, which ``polyhedral_region`` checked, and
    ``gap_report``'s identity order.
    """
    den, lv = net.integer_levels
    active = net.users if s is None else sorted(s)
    # (vertex index, cell index, integer level row) of each active user.
    rows = [(i, u.cell - 1, lv[u.cell - 1][u.slot - 1]) for i, u in enumerate(active, 1)]
    row_of = dict(zip(active, rows))

    edges: list[tuple[int, int, int]] = []
    for k in range(1, net.cells + 1):
        seq = [row_of[User(k, slot)] for slot in order.slots(k)]
        for a, (i, _, ri) in enumerate(seq):
            for j, _, rj in seq[a + 1:]:
                edges.append((i, j, ri[k - 1]))
                edges.append((j, i, rj[k - 1] - ri[k - 1]))
    for (i, ki, ri), (j, kj, rj) in itertools.permutations(rows, 2):
        if ki != kj:
            edges.append((i, j, ri[ki] - rj[ki]))
    for i, k, r in rows:
        edges.append((0, i, 0))
        edges.append((i, 0, r[k]))
    return PotentialSkeleton(den, (GROUND, *active), tuple(edges))


def _shifted(sk: PotentialSkeleton, d: GdofTuple | None) -> tuple[int, list | tuple]:
    """``(D, edges)``: the skeleton's edges at ``d``, with integer lengths
    over D, the lcm of ``sk.den`` and the denominators of d.  Each d_u
    enters as one integer shift of the edges out of u.  ``d`` must vanish
    outside the skeleton's users; ``None`` is the zero tuple."""
    if d is None:
        return sk.den, sk.edges
    users = sk.vertices[1:]
    bad = d.support() - set(users)
    if bad:
        raise NetworkSpecError(f"GDoF tuple is nonzero on deactivated users {sorted(bad)}")
    values = [d[u] for u in users]
    den = math.lcm(sk.den, *(x.denominator for x in values))
    scale = den // sk.den
    shift = [0, *(x.numerator * (den // x.denominator) for x in values)]
    return den, [(t, h, c * scale - shift[t]) for t, h, c in sk.edges]


def skeleton_distances(
    sk: PotentialSkeleton, d: GdofTuple | None = None
) -> tuple[int, list[int]] | Circuit:
    """Ground distances of the skeleton at ``d``, or a negative simple circuit.

    Distances come back as ``(D, dist)``, where ``dist[i] / D`` is the
    distance of ``sk.vertices[i]`` and D is the lcm of ``sk.den`` and the
    denominators of d.  The pass is ``_relax`` on Python ints, over the
    edges of ``build_potential_graph(..., d)`` in their order, so it finds
    the distances and the circuit that ``_bellman_ford`` finds there.
    ``d`` must vanish outside the skeleton's users.
    """
    den, edges = _shifted(sk, d)
    result = _relax(sk.vertices, edges, den)
    return result if isinstance(result, Circuit) else (den, result)


def iter_simple_circuits(g: PotentialGraph) -> Iterator[Circuit]:
    """Every simple directed circuit of the (complete) potential graph."""
    lengths = g._length_map
    for c in enumerate_cyclic_sequences(g.vertices, min_len=2):
        yield Circuit(c, sum((lengths[(c[i - 1], c[i])] for i in range(len(c))), Fraction(0)))


def all_circuits_region_oracle(net: NetworkSpec, order: DecodingOrder, d: GdofTuple) -> bool:
    """Membership by brute force: check every simple circuit for negative length.

    This is the defining condition, prior to any redundancy elimination; it
    exists as an independent oracle for the fast tests.  Guarded to small
    graphs (the circuit count grows factorially).
    """
    g = build_potential_graph(net, order, None, d)
    if len(g.vertices) > CIRCUIT_ENUMERATION_MAX_VERTICES:
        raise GuardExceededError(
            f"{len(g.vertices)} vertices exceeds the exhaustive-enumeration guard "
            f"({CIRCUIT_ENUMERATION_MAX_VERTICES})"
        )
    return all(c.length >= 0 for c in iter_simple_circuits(g))
