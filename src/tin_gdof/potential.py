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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import GuardExceededError, InfeasibleAllocationError, NetworkSpecError, TinGdofError
from .model import DecodingOrder, NetworkSpec, Subnetwork, User
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

    def family_count(self, family: EdgeFamily) -> int:
        return sum(1 for e in self.edges if e.family is family)


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
    """Transmit power exponents (<= 0); deactivated users are marked off."""

    exponents: Mapping
    off: frozenset

    def __post_init__(self):
        exps = {User(*u): Fraction(v) for u, v in self.exponents.items()}
        if any(v > 0 for v in exps.values()):
            raise ValueError("power exponents must be <= 0")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "off", frozenset(User(*u) for u in self.off))
        if exps.keys() & self.off:
            raise ValueError("a user cannot be both powered and off")

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
    graph entirely.
    """
    s = net.full_subnetwork if s is None else net.validate_subnetwork(s)
    order.validate(net, s)
    if d is None:
        d = GdofTuple({u: 0 for u in net.users})
    bad = d.support() - s
    if bad:
        raise NetworkSpecError(f"GDoF tuple is nonzero on deactivated users {sorted(bad)}")

    edges: list[Edge] = []
    active = sorted(s)

    for k in range(1, net.cells + 1):
        seq = order.slots(k)
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                u, v = User(k, seq[a]), User(k, seq[b])
                edges.append(
                    Edge(u, v, net.direct(u) - d[u], EdgeFamily.INTRA_FORWARD)
                )
                edges.append(
                    Edge(v, u, net.direct(v) - net.direct(u) - d[v], EdgeFamily.INTRA_BACKWARD)
                )
    for u, v in itertools.permutations(active, 2):
        if u.cell != v.cell:
            edges.append(
                Edge(u, v, net.direct(u) - net.alpha(v, u.cell) - d[u], EdgeFamily.CROSS)
            )
    for u in active:
        edges.append(Edge(GROUND, u, Fraction(0), EdgeFamily.FROM_GROUND))
        edges.append(Edge(u, GROUND, net.direct(u) - d[u], EdgeFamily.TO_GROUND))

    return PotentialGraph((GROUND, *active), tuple(edges))


def _bellman_ford(g: PotentialGraph) -> dict[User, Fraction] | Circuit:
    """Shortest-path lengths from ground, or a negative simple circuit.

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
    dist: dict[User, Fraction] = dict.fromkeys(g.vertices)
    dist[GROUND] = Fraction(0)
    parent: dict[User, Edge] = {}
    for _ in range(len(g.vertices)):
        lowered = None
        for e in g.edges:
            du = dist[e.tail]
            if du is None:
                continue
            cand = du + e.length
            if dist[e.head] is None or cand < dist[e.head]:
                dist[e.head] = cand
                parent[e.head] = e
                lowered = e.head
        if lowered is None:
            return dist

    # Round n lowered a distance: follow the parent chain until it repeats.
    chain, v = [], lowered
    while v not in chain:
        chain.append(v)
        v = parent[v].tail
    cycle = chain[chain.index(v):][::-1]
    length = sum((parent[u].length for u in cycle), Fraction(0))
    if length >= 0:
        raise TinGdofError(f"parent-graph cycle {tuple(cycle)} has length {length} >= 0")
    return Circuit(tuple(cycle), length)


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


def iter_simple_circuits(g: PotentialGraph) -> Iterator[Circuit]:
    """Every simple directed circuit of the (complete) potential graph."""
    lengths = g._length_map
    for seq in enumerate_cyclic_sequences(g.vertices, min_len=2):
        c = seq.cells
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
