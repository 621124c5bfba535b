"""Potential-graph membership test with its power allocation or witness.

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

One type, ``PotentialGraph``, holds the graph: edges over vertex indices,
with exact lengths over a denominator.  ``potential_skeleton`` is the one
writer of the edges, with integer lengths at d = 0.  A tuple d enters as one
integer shift of the edges out of each user (``_shifted``), and one pass,
``_bellman_ford``, relaxes every length type: region set-up relaxes the
integer skeleton and its shifts, and ``_fraction_graph``, behind the
checked entry ``build_potential_graph``, gives the shifted edges with
``Fraction`` lengths for membership.
``tests/test_potential.py`` keeps an independent construction, labelled by
edge family, as the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .errors import GuardExceededError, NetworkSpecError, TinGdofError
from .model import DecodingOrder, NetworkSpec, Subnetwork, User, _per_user, _users
from .regions import GdofTuple, enumerate_cyclic_sequences

#: Ground vertex sentinel; cells are 1-based so (0, 0) is never a real user.
GROUND = User(0, 0)

#: Exhaustive circuit enumeration stops with ``GuardExceededError`` past this
#: many circuits: every circuit of the complete digraph on 9 vertices.
CIRCUIT_ENUMERATION_MAX_CIRCUITS = 125_664


class PotentialGraph(NamedTuple):
    """The potential graph of a ``(net, order, s)`` at a tuple d.

    ``vertices`` are ground, then the sorted active users.  ``edges`` are
    ``(tail, head, length)``: vertex indices and an exact length, an
    ``int`` or a ``Fraction``, in units of ``1 / den``.  They come cell by
    cell, each decode-ordered pair of a cell as its forward then its
    backward edge, then the cross edges, then each user's edges from and
    to ground.  A tuple d lowers every edge out of a user u by d_u, and no
    edge out of ground.
    """

    den: int
    vertices: tuple[User, ...]
    edges: tuple[tuple[int, int, int | Fraction], ...]


@dataclass(frozen=True)
class Circuit:
    """A simple directed circuit, stored as its vertex cycle (no repeats)."""

    vertices: tuple[User, ...]
    length: Fraction


@dataclass(frozen=True)
class FeasibilityResult:
    """The answer of one pass: a feasible graph's power allocation, or an
    infeasible graph's negative circuit; the other field is None."""

    feasible: bool
    witness: Circuit | None = None
    allocation: PowerAllocation | None = None

    def __bool__(self) -> bool:
        return self.feasible


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit power exponents (<= 0), each through ``rationalize``;
    deactivated users are marked off."""

    exponents: Mapping
    off: frozenset

    def __post_init__(self):
        exps = _per_user(self.exponents, "power exponents")
        if any(v > 0 for v in exps.values()):
            raise NetworkSpecError("power exponents must be <= 0")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "off", frozenset(_users(self.off, "off")))
        if exps.keys() & self.off:
            raise NetworkSpecError("a user cannot be both powered and off")

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
    ``DecodingOrder.validate``.  The graph is ``_fraction_graph`` of that
    scope: ``_shifted`` of the ``potential_skeleton`` at ``d``, its edges
    in the same order, each length a ``Fraction`` (``den`` is 1).

    ``_fraction_graph`` is the one place that makes ``Fraction`` lengths.
    Its callers, ``general_membership`` (directly, after one support check
    per query), CLI ``membership --order`` and ``oracle-verify`` (through
    this entry), stay on them until the benchmark worker's memory is
    bounded (ROADMAP item 1).  With integer lengths, on top of the skip of
    ``_bellman_ford``, the ``membership`` benchmark's ``work_per_s`` rose
    2.08 times (2,942 to 6,125 queries/s, medians of 2 alternating pairs,
    2-CPU x86_64, Python 3.11), but its ``peak_rss_mb`` rose 22% (44.8 to
    54.7 MiB), past the benchmark's 10% memory bound, since the worker
    keeps every latency.
    """
    return _fraction_graph(net, order, order.validate(net, s), d)


def _fraction_graph(
    net: NetworkSpec, order: DecodingOrder, s: Subnetwork, d: GdofTuple | None
) -> PotentialGraph:
    """``build_potential_graph`` on a checked scope: ``s`` and ``order`` as
    ``DecodingOrder.validate`` returns and checks them.  ``general_membership``
    checks its support once and calls this for each of its orders."""
    g = _shifted(potential_skeleton(net, order, s), d)
    return PotentialGraph(1, g.vertices, tuple((t, h, Fraction(c, g.den)) for t, h, c in g.edges))


def _bellman_ford(g: PotentialGraph) -> dict[User, int | Fraction] | Circuit:
    """Shortest-path lengths from ground, in units of ``1 / g.den``, or a
    negative simple circuit: the one relaxation pass, for every length type.

    Rounds of relaxation over ``g.edges``, in their order; each vertex
    keeps the edge that last lowered its distance d, its parent.  A parent
    edge (u, v) keeps d(v) >= d(u) + len(u, v), since d(u) only falls
    afterwards.  Hence (Cherkassky & Goldberg, "Negative-cycle detection
    algorithms", Math. Programming 1999):

    * Every cycle of the parent graph is negative: the edge (u, v) that
      closed it lowered d(v), which made the next edge (v, w) strict, and
      the inequalities sum around the cycle to 0 > its length.
    * If round n still lowers d(v), the parent chain from v meets a cycle.
      Round n - 1 left d(v) at most the length of every simple path from
      ground to v (at most n - 1 edges), and round n went below that.  A
      chain ending at ground, the one parentless vertex, would sum to such
      a path of length at most d(v).

    So the pass stops at the first round that closes a parent cycle, and
    that cycle is the witness: after every round that lowered a distance,
    ``_parent_cycle`` looks for one, at O(n) against the round's
    O(|edges|).  The stop is exact.  By the first point, a graph with no
    negative circuit never has a parent cycle, so its rounds and distances
    are those of the plain pass, which ends at the first round that lowers
    nothing.  By the second, a graph with a negative circuit has a parent
    cycle by round n at the latest.  The circuit's length is summed again
    from its parent edges and checked negative.

    Steps number the edge scans of all rounds from 0, so the scans of one
    edge lie m = |edges| steps apart.  An edge (t, h, c) is relaxed only if
    d(t) was set or fell since its previous scan, m steps earlier
    (Cherkassky & Goldberg's scanning rule).  The skip is exact: the
    previous scan left d(h) <= d(t) + c; since then d(t) has not moved and
    d(h) has only fallen, so the plain relaxation would find
    d(t) + c < d(h) false and change nothing.  Every lowering, parent,
    round, distance and witness is therefore the plain pass's, bit for
    bit, for ``int`` and ``Fraction`` lengths alike.  A vertex lowered at
    step s counts as fallen for the steps up to s + m, which ``fresh``
    records; ground counts as set at step -1, an unreached vertex as never.
    """
    vertices = g.vertices
    n = len(vertices)
    m = len(g.edges)
    dist: list = [None] * n
    dist[0] = 0
    parent: list = [None] * n
    fresh = [-1] * n
    fresh[0] = m - 1
    for r in range(n):
        lowered = False
        for step, e in enumerate(g.edges, r * m):
            if fresh[e[0]] < step:
                continue
            cand = dist[e[0]] + e[2]
            dh = dist[e[1]]
            if dh is None or cand < dh:
                dist[e[1]] = cand
                parent[e[1]] = e
                fresh[e[1]] = step + m
                lowered = True
        if not lowered:
            return dict(zip(vertices, dist))
        cycle = _parent_cycle(parent)
        if cycle is not None:
            length = Fraction(sum(parent[i][2] for i in cycle), g.den)
            circuit = tuple(vertices[i] for i in cycle)
            if length >= 0:
                raise TinGdofError(f"parent-graph cycle {circuit} has length {length} >= 0")
            return Circuit(circuit, length)
    raise TinGdofError(f"round {n} lowered a distance but the parent graph has no cycle")


def _parent_cycle(parent: list) -> list[int] | None:
    """The first cycle of the parent graph, or None.

    ``parent[v]`` is the edge ``(tail, head, length)`` into v, or None.
    Walks up from each vertex in index order, marking every vertex with
    the walk that reached it first, so each vertex is visited once; a walk
    that meets its own mark has closed a cycle.  The cycle comes back in
    edge order, ending at the vertex where the walk met itself.
    """
    walk_of = [None] * len(parent)
    for start in range(len(parent)):
        v = start
        while v is not None and walk_of[v] is None:
            walk_of[v] = start
            e = parent[v]
            v = None if e is None else e[0]
        if v is not None and walk_of[v] == start:
            cycle, u = [v], parent[v][0]
            while u != v:
                cycle.append(u)
                u = parent[u][0]
            return cycle[::-1]
    return None


def feasible_by_negative_cycle(g: PotentialGraph, off: frozenset = frozenset()) -> FeasibilityResult:
    """Feasible iff no directed circuit of ``g`` has negative total length,
    decided by one Bellman-Ford pass from ground.

    On a feasible graph the ``allocation`` holds the ground distances over
    ``g.den`` as transmit power exponents.  They are <= 0 (the zero-length
    ground edges cap them) and satisfy every difference constraint the
    graph encodes, so the achievable-GDoF evaluator dominates the tuple the
    graph was built for; ``off`` marks the deactivated users.  On an
    infeasible graph the ``witness`` is a simple circuit of strictly
    negative length.
    """
    result = _bellman_ford(g)
    if isinstance(result, Circuit):
        return FeasibilityResult(False, result)
    exponents = {v: Fraction(result[v], g.den) for v in g.vertices[1:]}
    return FeasibilityResult(True, None, PowerAllocation(exponents, off))


def potential_skeleton(
    net: NetworkSpec, order: DecodingOrder, s: Subnetwork | None = None
) -> PotentialGraph:
    """The ``PotentialGraph`` of ``(net, order, s)`` at d = 0, built from
    ``net.levels``: the one place that writes the edge families.  Its
    lengths are integers over ``net.den``, the levels' common denominator.

    Takes a checked scope and checks nothing: ``s`` (None for every user)
    and ``order`` as ``DecodingOrder.validate`` returns and checks them.
    Its callers are ``_fraction_graph``, after the check of
    ``build_potential_graph`` or ``general_membership``, the flow
    network of a region, which ``polyhedral_region`` checked, and
    ``gap_report``'s identity order.
    """
    lv = net.levels
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
    return PotentialGraph(net.den, (GROUND, *active), tuple(edges))


def _shifted(sk: PotentialGraph, d: GdofTuple | None) -> PotentialGraph:
    """The ``PotentialGraph`` of the skeleton ``sk`` at ``d``: the same
    vertices and edges, with integer lengths over D, the lcm of ``sk.den``
    and the denominators of d.  Each d_u enters as one integer shift of the
    edges out of u.  ``d`` must vanish outside the skeleton's users;
    ``None`` is the zero tuple, and gives ``sk`` itself."""
    if d is None:
        return sk
    users = sk.vertices[1:]
    bad = d.support() - set(users)
    if bad:
        raise NetworkSpecError(f"GDoF tuple is nonzero on deactivated users {sorted(bad)}")
    values = [d[u] for u in users]
    den = math.lcm(sk.den, *(x.denominator for x in values))
    scale = den // sk.den
    shift = [0, *(x.numerator * (den // x.denominator) for x in values)]
    edges = tuple((t, h, c * scale - shift[t]) for t, h, c in sk.edges)
    return PotentialGraph(den, sk.vertices, edges)


def iter_simple_circuits(g: PotentialGraph) -> Iterator[Circuit]:
    """Every simple directed circuit of the (complete) potential graph."""
    v = g.vertices
    lengths = {(t, h): c for t, h, c in g.edges}
    for c in enumerate_cyclic_sequences(range(len(v)), min_len=2):
        length = sum(lengths[(c[i - 1], c[i])] for i in range(len(c)))
        yield Circuit(tuple(v[i] for i in c), Fraction(length, g.den))


def all_circuits_region_oracle(net: NetworkSpec, order: DecodingOrder, d: GdofTuple) -> bool:
    """Membership by brute force: check every simple circuit for negative length.

    This is the defining condition, prior to any redundancy elimination; it
    exists as an independent oracle for the fast tests.  It stops at the
    first negative circuit, and is guarded by the work it does: the
    circuit count grows factorially, so enumerating a circuit past
    ``CIRCUIT_ENUMERATION_MAX_CIRCUITS`` raises ``GuardExceededError``.
    Every graph of at most 9 vertices is decided, and a larger one when a
    negative circuit comes early enough.
    """
    g = build_potential_graph(net, order, None, d)
    for count, c in enumerate(iter_simple_circuits(g), 1):
        if count > CIRCUIT_ENUMERATION_MAX_CIRCUITS:
            raise GuardExceededError(
                f"{len(g.vertices)}-vertex graph has more than "
                f"{CIRCUIT_ENUMERATION_MAX_CIRCUITS} circuits, the exhaustive-enumeration guard"
            )
        if c.length < 0:
            return False
    return True
