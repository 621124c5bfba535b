import inspect
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from tin_gdof import potential
from tin_gdof.analysis import achievable_gdof, general_membership
from tin_gdof.conditions import evaluate_conditions
from tin_gdof.errors import (
    GuardExceededError,
    NetworkSpecError,
    TinGdofError,
)
from tin_gdof.model import DecodingOrder, NetworkSpec, User, enumerate_orders
from tin_gdof.potential import (
    GROUND,
    Circuit,
    PotentialGraph,
    PowerAllocation,
    all_circuits_region_oracle,
    build_potential_graph,
    feasible_by_negative_cycle,
    iter_simple_circuits,
    potential_skeleton,
)
from tin_gdof.regions import GdofTuple, membership, polyhedral_region
from tin_gdof.sampling import (
    random_convexity_network,
    random_gdof_tuple,
    random_grid_allocation,
    random_network,
    random_order,
)


def single_user_net(alpha):
    return NetworkSpec.from_alpha(1, [1], {(User(1, 1), 1): Fraction(alpha)})


class EdgeFamily(Enum):
    INTRA_FORWARD = "intra_forward"
    INTRA_BACKWARD = "intra_backward"
    CROSS = "cross"
    FROM_GROUND = "from_ground"
    TO_GROUND = "to_ground"


class OracleEdge(NamedTuple):
    tail: User
    head: User
    length: Fraction
    family: EdgeFamily


class OracleGraph(NamedTuple):
    vertices: tuple
    edges: tuple


def fraction_potential_graph(net, order, s=None, d=None):
    """The potential graph written family by family from ``net.direct`` and
    ``net.alpha`` in ``Fraction``, as ``OracleEdge``s: the oracle for
    ``build_potential_graph``, which reads the integer skeleton."""
    s = order.validate(net, s)
    if d is None:
        d = GdofTuple({u: 0 for u in net.users})
    bad = d.support() - s
    if bad:
        raise NetworkSpecError(f"GDoF tuple is nonzero on deactivated users {sorted(bad)}")
    edges = []
    active = sorted(s)
    for k in range(1, net.cells + 1):
        seq = order.slots(k)
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                u, v = User(k, seq[a]), User(k, seq[b])
                edges.append(OracleEdge(u, v, net.direct(u) - d[u], EdgeFamily.INTRA_FORWARD))
                backward = net.direct(v) - net.direct(u) - d[v]
                edges.append(OracleEdge(v, u, backward, EdgeFamily.INTRA_BACKWARD))
    for u, v in itertools.permutations(active, 2):
        if u.cell != v.cell:
            cross = net.direct(u) - net.alpha(v, u.cell) - d[u]
            edges.append(OracleEdge(u, v, cross, EdgeFamily.CROSS))
    for u in active:
        edges.append(OracleEdge(GROUND, u, Fraction(0), EdgeFamily.FROM_GROUND))
        edges.append(OracleEdge(u, GROUND, net.direct(u) - d[u], EdgeFamily.TO_GROUND))
    return OracleGraph((GROUND, *active), tuple(edges))


def fraction_bellman_ford(g):
    """Bellman-Ford over dicts keyed by user, with the library's parent rule,
    stop rule and circuit extraction: the oracle for ``potential._bellman_ford``.

    After every round that lowered a distance, walk up the parent edges
    from each vertex in the order of ``g.vertices``, skipping vertices an
    earlier walk reached.  The first walk that returns to a vertex of its
    own path stops the pass; the circuit is that loop of the path, in edge
    order, ending at the vertex where the walk returned."""
    dist = dict.fromkeys(g.vertices)
    dist[GROUND] = Fraction(0)
    parent = {}
    for _ in range(len(g.vertices)):
        lowered = False
        for e in g.edges:
            du = dist[e.tail]
            if du is None:
                continue
            cand = du + e.length
            if dist[e.head] is None or cand < dist[e.head]:
                dist[e.head] = cand
                parent[e.head] = e
                lowered = True
        if not lowered:
            return dist
        reached = set()
        for start in g.vertices:
            path, v = [], start
            while v is not None and v not in reached:
                reached.add(v)
                path.append(v)
                v = parent[v].tail if v in parent else None
            if v in path:
                cycle = path[path.index(v):][::-1]
                length = sum((parent[u].length for u in cycle), Fraction(0))
                if length >= 0:
                    raise TinGdofError(f"parent-graph cycle {tuple(cycle)} has length {length} >= 0")
                return Circuit(tuple(cycle), length)
    raise TinGdofError("round n lowered a distance but the parent graph has no cycle")


def edge_triples(g):
    """The edges of a library graph as ``(tail, head, length)`` over users,
    each length a ``Fraction``, in their order."""
    return [(g.vertices[t], g.vertices[h], Fraction(c, g.den)) for t, h, c in g.edges]


def edge_length(g, tail, head):
    """The length of the edge ``(tail, head)`` of a library graph."""
    return next(c for t, h, c in edge_triples(g) if (t, h) == (tail, head))


def fraction_lengths(g):
    """``g`` with each length written as ``Fraction(c, g.den)``, over den 1:
    a ``Fraction`` graph for the pass, whether ``build_potential_graph``
    gives ``Fraction`` or integer lengths."""
    return PotentialGraph(1, g.vertices, tuple((t, h, Fraction(c, g.den)) for t, h, c in g.edges))


def graph_pass(g):
    """``potential._bellman_ford(g)``, its distances as ``Fraction``s."""
    result = potential._bellman_ford(g)
    if isinstance(result, Circuit):
        return result
    return {v: Fraction(x, g.den) for v, x in result.items()}


class CountingEdges(tuple):
    """A graph's edges that count the passes made over them:
    ``_bellman_ford`` iterates its edges once per round."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def counted_pass(g):
    """``feasible_by_negative_cycle(g)`` and the number of rounds it ran."""
    edges = CountingEdges(g.edges)
    result = feasible_by_negative_cycle(PotentialGraph(g.den, g.vertices, edges))
    return result, edges.passes


def full_round_distances(n, edges):
    """Ground distances by n full rounds over every edge, with no stop rule:
    the reference for the distances of a feasible graph."""
    dist = [None] * n
    dist[0] = 0
    for _ in range(n):
        for t, h, c in edges:
            if dist[t] is not None and (dist[h] is None or dist[t] + c < dist[h]):
                dist[h] = dist[t] + c
    return dist


def counted_additions(g):
    """``graph_pass(g)``, the length additions it made and its rounds.  Each
    length is replaced by an equal one of a subclass of its type whose
    ``x + length`` adds one to the tally and returns the plain sum."""
    tally = [0]

    def counting(base):
        def radd(self, other):
            tally[0] += 1
            return base.__radd__(self, other)

        return type(f"Counted{base.__name__}", (base,), {"__radd__": radd})

    kinds = {base: counting(base) for base in (int, Fraction)}
    edges = CountingEdges((t, h, kinds[type(c)](c)) for t, h, c in g.edges)
    result = graph_pass(PotentialGraph(g.den, g.vertices, edges))
    return result, tally[0], edges.passes


def skip_rule_scans(n, edges, rounds):
    """The scans of ``rounds`` plain rounds over ``edges`` whose tail is set:
    all of them, and those whose tail fell at or after the edge's previous
    scan, ``len(edges)`` steps earlier, a tail's first value counting as a
    fall and ground's as one just before step 0."""
    m = len(edges)
    dist = [None] * n
    dist[0] = 0
    fell = [None] * n
    fell[0] = -1
    plain = kept = 0
    for step, (t, h, c) in enumerate(edges * rounds):
        if dist[t] is None:
            continue
        plain += 1
        kept += fell[t] >= step - m
        if dist[h] is None or dist[t] + c < dist[h]:
            dist[h] = dist[t] + c
            fell[h] = step
    return plain, kept


def assert_negative_simple_circuit(g, circuit):
    """``circuit`` repeats no vertex, and the edges of ``g`` around it sum
    to its reported length, which is negative."""
    verts = circuit.vertices
    assert len(verts) >= 2 and len(set(verts)) == len(verts)
    total = sum((edge_length(g, verts[i - 1], verts[i]) for i in range(len(verts))), Fraction(0))
    assert total == circuit.length < 0


def family_count(g: OracleGraph, family: EdgeFamily) -> int:
    return sum(1 for e in g.edges if e.family is family)


def test_graph_shape_two_cells_two_users():
    alpha = {}
    for l in (1, 2):
        for k in (1, 2):
            alpha[(User(k, l), k)] = Fraction(l)
            alpha[(User(k, l), 3 - k)] = Fraction(1, 10)
    net = NetworkSpec.from_alpha(2, [2, 2], alpha)
    g = build_potential_graph(net, DecodingOrder.identity(net))
    oracle = fraction_potential_graph(net, DecodingOrder.identity(net))
    assert len(g.vertices) == 5 and g.vertices == oracle.vertices
    assert edge_triples(g) == [(e.tail, e.head, e.length) for e in oracle.edges]
    assert family_count(oracle, EdgeFamily.INTRA_FORWARD) == 2
    assert family_count(oracle, EdgeFamily.INTRA_BACKWARD) == 2
    assert family_count(oracle, EdgeFamily.CROSS) == 8
    assert family_count(oracle, EdgeFamily.FROM_GROUND) == 4
    assert family_count(oracle, EdgeFamily.TO_GROUND) == 4
    assert len(g.edges) == 20


def test_single_user_graph_lengths():
    net = single_user_net("0.8")
    d = GdofTuple({User(1, 1): Fraction(1, 4)})
    g = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    assert len(g.vertices) == 2
    assert len(g.edges) == 2
    assert edge_length(g, GROUND, User(1, 1)) == 0
    assert edge_length(g, User(1, 1), GROUND) == Fraction(4, 5) - Fraction(1, 4)


def test_ground_out_edges_always_zero():
    rng = random.Random(11)
    for _ in range(10):
        net = random_network(rng)
        d = random_gdof_tuple(rng, net)
        g = build_potential_graph(net, random_order(rng, net), None, d)
        for tail, _, length in g.edges:
            if tail == 0:
                assert length == 0


def test_single_user_boundary_feasibility():
    net = single_user_net("0.8")
    order = DecodingOrder.identity(net)
    at_cap = GdofTuple({User(1, 1): Fraction(4, 5)})
    assert feasible_by_negative_cycle(build_potential_graph(net, order, None, at_cap))
    over = GdofTuple({User(1, 1): Fraction(9, 5)})
    res = feasible_by_negative_cycle(build_potential_graph(net, order, None, over))
    assert not res.feasible
    assert set(res.witness.vertices) == {GROUND, User(1, 1)}
    assert res.witness.length == -1


def test_pimac_witness_and_recovery(pimac_nonconvex):
    net = pimac_nonconvex
    d = GdofTuple.from_values(net, ["0.2", "0.5", "1.0"])
    g_id = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    res = feasible_by_negative_cycle(g_id)
    assert not res.feasible
    # witness is a genuine negative circuit of the graph
    verts = res.witness.vertices
    resummed = sum(
        (edge_length(g_id, verts[i - 1], verts[i]) for i in range(len(verts))), Fraction(0)
    )
    assert resummed == res.witness.length < 0
    assert len(set(verts)) == len(verts)

    idbar = DecodingOrder(((2, 1), (1,)))
    g_bar = build_potential_graph(net, idbar, None, d)
    res = feasible_by_negative_cycle(g_bar)
    assert res.feasible and res.witness is None
    alloc = res.allocation
    assert all(v <= 0 for v in alloc.exponents.values())
    # every difference constraint encoded by the graph holds at the potentials
    pot = dict(alloc.exponents)
    pot[GROUND] = Fraction(0)
    for tail, head, length in edge_triples(g_bar):
        assert pot[head] - pot[tail] <= length


def test_infeasible_graph_has_no_allocation():
    net = single_user_net("0.5")
    d = GdofTuple({User(1, 1): Fraction(1)})
    g = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    res = feasible_by_negative_cycle(g)
    assert not res.feasible and res.allocation is None
    assert res.witness == Circuit((User(1, 1), GROUND), Fraction(-1, 2))


def test_single_user_recovery_at_capacity():
    net = single_user_net("0.8")
    d = GdofTuple({User(1, 1): Fraction(4, 5)})
    g = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    alloc = feasible_by_negative_cycle(g).allocation
    assert alloc[User(1, 1)] == 0  # tight bound forces full power


def test_zero_tuple_recovery_contract():
    # the zero tuple may itself be infeasible (negative cyclic bound -> empty
    # region); the recovery contract applies to feasible graphs only
    rng = random.Random(12)
    feasible_seen = 0
    for _ in range(20):
        net = random_network(rng)
        order = random_order(rng, net)
        g = build_potential_graph(net, order, None, GdofTuple({}))
        res = feasible_by_negative_cycle(g)
        if not res.feasible:
            continue
        feasible_seen += 1
        assert all(v <= 0 for v in res.allocation.exponents.values())
    assert feasible_seen > 0


def test_negative_cycle_agrees_with_inequalities():
    rng = random.Random(13)
    for _ in range(300):
        net = random_network(rng)
        order = random_order(rng, net)
        d = random_gdof_tuple(rng, net)
        by_ineq = membership(polyhedral_region(net, order), d).member
        g = build_potential_graph(net, order, None, d)
        res = feasible_by_negative_cycle(g)
        assert res.feasible == by_ineq
        if not res.feasible:
            verts = res.witness.vertices
            assert len(set(verts)) == len(verts)
            resummed = sum(
                (edge_length(g, verts[i - 1], verts[i]) for i in range(len(verts))),
                Fraction(0),
            )
            assert resummed == res.witness.length < 0


def test_negative_cycle_agrees_on_subnetworks():
    rng = random.Random(14)
    for _ in range(200):
        net = random_network(rng)
        s = frozenset(u for u in net.users if rng.random() < 0.7)
        order = random_order(rng, net, s)
        d = GdofTuple({u: random_gdof_tuple(rng, net)[u] if u in s else 0 for u in net.users})
        by_ineq = membership(polyhedral_region(net, order, s), d).member
        g = build_potential_graph(net, order, s, d)
        assert feasible_by_negative_cycle(g).feasible == by_ineq


def test_negative_cycle_extraction_with_heavy_ties():
    # a coarse level lattice produces many zero-length circuits, the hard
    # case for witness extraction
    rng = random.Random(16)
    infeasible_seen = 0
    for _ in range(400):
        net = random_network(rng, denom=2, max_level=1)
        order = random_order(rng, net)
        d = random_gdof_tuple(rng, net, denom=2, max_level=1)
        by_ineq = membership(polyhedral_region(net, order), d).member
        g = build_potential_graph(net, order, None, d)
        res = feasible_by_negative_cycle(g)
        assert res.feasible == by_ineq
        if not res.feasible:
            infeasible_seen += 1
            verts = res.witness.vertices
            assert len(set(verts)) == len(verts)
            total = sum(
                (edge_length(g, verts[i - 1], verts[i]) for i in range(len(verts))),
                Fraction(0),
            )
            assert total == res.witness.length < 0
    assert infeasible_seen > 20


def test_skeleton_pass_matches_fraction_pass():
    # The library's graph and both of its passes against the oracle
    # construction and relaxation: random subnetworks and tuples with
    # assorted denominators, then the seed-16 heavy-tie graphs of the test
    # above.
    cases = []
    rng = random.Random(18)
    for _ in range(300):
        net = random_network(rng, max_cells=4, max_users=3)
        s = frozenset(u for u in net.users if rng.random() < 0.75)
        order = random_order(rng, net, s)
        d = random_gdof_tuple(rng, net, denom=rng.choice([3, 7, 20]))
        cases.append((net, order, s, GdofTuple({u: d[u] for u in s})))
    rng = random.Random(16)
    for _ in range(400):
        net = random_network(rng, denom=2, max_level=1)
        order = random_order(rng, net)
        d = random_gdof_tuple(rng, net, denom=2, max_level=1)
        cases.append((net, order, None, d))
    feasible = infeasible = 0
    for net, order, s, d in cases:
        oracle = fraction_potential_graph(net, order, s, d)
        g = build_potential_graph(net, order, s, d)
        assert g.vertices == oracle.vertices
        assert edge_triples(g) == [(e.tail, e.head, e.length) for e in oracle.edges]
        sk = potential_skeleton(net, order, s)
        assert sk.vertices == oracle.vertices
        assert [
            (sk.vertices[t], sk.vertices[h], Fraction(c, sk.den) - d[sk.vertices[t]])
            for t, h, c in sk.edges
        ] == [(e.tail, e.head, e.length) for e in oracle.edges]
        expected = fraction_bellman_ford(oracle)
        assert graph_pass(g) == expected
        shifted = potential._shifted(sk, d)
        assert all(type(c) is int for _, _, c in shifted.edges)
        got = potential._bellman_ford(shifted)
        if isinstance(expected, Circuit):
            infeasible += 1
            assert got == expected
        else:
            feasible += 1
            assert all(type(x) is int for x in got.values())
            assert {v: Fraction(x, shifted.den) for v, x in got.items()} == expected
    assert feasible > 150 and infeasible > 150


def test_pass_stops_at_the_round_that_closes_a_parent_cycle():
    # The first two edges close the negative circuit ground -> 1.1 -> ground;
    # the pass ends with the round that closed it, not after n = 5 rounds.
    users = (User(1, 1), User(1, 2), User(2, 1), User(2, 2))
    edges = [(0, 1, 0), (1, 0, -1), (0, 2, 0), (0, 3, 0), (0, 4, 0), (2, 3, 1), (3, 4, 1)]
    result, passes = counted_pass(PotentialGraph(1, (GROUND, *users), tuple(edges)))
    assert passes == 1
    assert result.witness == Circuit((User(1, 1), GROUND), Fraction(-1))


def test_parent_cycle_is_summed_again_before_it_is_reported():
    # The witness is summed from its parent edges, not trusted to the proof
    # that every parent cycle is negative: here the edge 1.1 -> 1.2 changes
    # its length after the round that closed 1.1 -> 1.2 -> 1.1, so the
    # cycle sums to 5 and the pass refuses it.
    class Rewritten(list):
        def __iter__(self):
            yield from super().__iter__()
            edge[2] = 5

    edge = [1, 2, -1]
    g = PotentialGraph(1, (GROUND, User(1, 1), User(1, 2)), Rewritten([(0, 1, 0), edge, (2, 1, 0)]))
    with pytest.raises(TinGdofError, match="has length 5 >= 0"):
        feasible_by_negative_cycle(g)


def test_early_decisions_match_the_all_circuits_oracle():
    # The seed-16 heavy-tie graphs, members and non-members, and non-members
    # of shapes 3 x 2, 4 x 2 and 3 x 3: lattice tuples, and tuples just
    # outside a convexity network's region.  The oracle stops at its first
    # negative circuit on a non-member, so a 3 x 3 graph (10 vertices)
    # is decided within its guard on circuits enumerated.
    cases = []
    rng = random.Random(16)
    for _ in range(400):
        net = random_network(rng, denom=2, max_level=1)
        order = random_order(rng, net)
        cases.append((net, order, random_gdof_tuple(rng, net, denom=2, max_level=1)))
    rng = random.Random(25)
    for shape in ([2, 2, 2], [2, 2, 2, 2], [3, 3, 3]):
        found = 0
        while found < 40:
            if found % 2:
                net = random_network(rng, cells=len(shape), users_per_cell=shape)
                order = random_order(rng, net)
                d = random_gdof_tuple(rng, net)
            else:
                net = random_convexity_network(rng, cells=len(shape), users_per_cell=shape)
                order = random_order(rng, net)
                achievable = achievable_gdof(net, order, random_grid_allocation(rng, net))
                d = GdofTuple({u: v * Fraction(101, 100) for u, v in achievable.items()})
            if not feasible_by_negative_cycle(build_potential_graph(net, order, None, d)):
                found += 1
                cases.append((net, order, d))
    decided = Counter()
    for net, order, d in cases:
        g = build_potential_graph(net, order, None, d)
        result, passes = counted_pass(g)
        assert result.feasible == all_circuits_region_oracle(net, order, d)
        if not result.feasible:
            assert_negative_simple_circuit(g, result.witness)
        decided[result.feasible, passes < len(g.vertices)] += 1
    # Most non-members stop before round n; a few close their cycle only in
    # round n, the old stop.
    assert decided[False, True] > 300 and decided[False, False] > 0
    assert decided[True, True] + decided[True, False] > 100


def test_feasible_distances_equal_a_full_round_pass():
    # Bit for bit, in int and in Fraction, on feasible graphs of assorted
    # shapes, subnetworks and denominators: the stop rule never fires early.
    rng = random.Random(26)
    feasible = 0
    for _ in range(300):
        shape = rng.choice([None, [2, 2, 2], [2, 2, 2, 2], [3, 3, 3]])
        cells = None if shape is None else len(shape)
        draw = rng.choice([random_network, random_convexity_network])
        net = draw(rng, cells=cells, users_per_cell=shape)
        s = frozenset(u for u in net.users if rng.random() < 0.8)
        order = random_order(rng, net, s)
        achievable = achievable_gdof(net, order, random_grid_allocation(rng, net))
        scale = Fraction(rng.choice([0, 50, 99]), 100)
        d = GdofTuple({u: v * scale if u in s else 0 for u, v in achievable.items()})
        g = fraction_lengths(build_potential_graph(net, order, s, d))
        expected = full_round_distances(len(g.vertices), g.edges)
        got = potential._bellman_ford(g)
        if isinstance(got, Circuit):
            continue
        feasible += 1
        assert list(got) == list(g.vertices)
        assert [(type(x), x) for x in got.values()] == [(type(x), x) for x in expected]
        sk = potential_skeleton(net, order, s)
        shifted = potential._shifted(sk, d)
        den = shifted.den
        edges = [(t, h, c * den // sk.den - int(d[sk.vertices[t]] * den)) for t, h, c in sk.edges]
        reference = full_round_distances(len(sk.vertices), edges)
        dist = potential._bellman_ford(shifted)
        assert list(dist) == list(sk.vertices)
        assert [(type(x), x) for x in dist.values()] == [(type(x), x) for x in reference]
        alloc = feasible_by_negative_cycle(g).allocation
        assert alloc.exponents == dict(zip(g.vertices[1:], expected[1:]))
    assert feasible > 100


def test_one_pass_gives_the_allocation_or_the_witness():
    # The seed-16 heavy-tie graphs, and subnetworks of convexity networks at
    # 1/2 and 99/100 of an achievable tuple (feasible) and at 101/100
    # (mostly not), each in Fraction and in int: exactly one of the
    # allocation and the witness is set.  The exponents are the oracle
    # pass's distances, which the int graph holds in units of 1 / g.den;
    # ``off`` is carried through; the witness is the oracle's, re-summed
    # from the graph's edges.
    cases = []
    rng = random.Random(16)
    for _ in range(150):
        net = random_network(rng, denom=2, max_level=1)
        order = random_order(rng, net)
        cases.append((net, order, None, random_gdof_tuple(rng, net, denom=2, max_level=1)))
    rng = random.Random(30)
    for _ in range(90):
        shape = rng.choice([[2, 2, 2], [2, 2, 2, 2], [3, 3]])
        net = random_convexity_network(rng, cells=len(shape), users_per_cell=shape)
        s = frozenset(u for u in net.users if rng.random() < 0.8) or None
        order = random_order(rng, net, s)
        achievable = achievable_gdof(net, order, random_grid_allocation(rng, net))
        scale = Fraction(rng.choice([50, 99, 101]), 100)
        d = {u: v * scale if s is None or u in s else 0 for u, v in achievable.items()}
        cases.append((net, order, s, GdofTuple(d)))
    decided = Counter()
    for net, order, s, d in cases:
        off = frozenset() if s is None else net.full_subnetwork - s
        expected = fraction_bellman_ford(fraction_potential_graph(net, order, s, d))
        for kind, g in (("Fraction", fraction_lengths(build_potential_graph(net, order, s, d))),
                        ("int", potential._shifted(potential_skeleton(net, order, s), d))):
            res = feasible_by_negative_cycle(g, off)
            assert res.feasible == (res.allocation is not None) == (res.witness is None)
            if res.feasible:
                assert res.allocation.exponents == {v: expected[v] for v in g.vertices[1:]}
                assert res.allocation.off == off
            else:
                assert res.witness == expected
                assert_negative_simple_circuit(g, res.witness)
            decided[kind, res.feasible, bool(off), g.den > 1] += 1
    assert decided["int", True, True, True] > 20 and decided["Fraction", True, True, False] > 20
    for kind in ("Fraction", "int"):
        assert sum(n for (k, found, _, _), n in decided.items() if (k, found) == (kind, False)) > 50


def test_pass_relaxes_an_edge_only_when_its_tail_fell_since_its_last_scan():
    # The length additions of the pass, in int and in Fraction, against a
    # recount on the plain pass's trajectory, which the skip leaves
    # unchanged: its rounds are the library's, and its scans that the rule
    # keeps are the library's relaxations.  A witness adds one addition per
    # edge when it is summed again.  Feasible graphs of convexity networks,
    # tuples just outside their regions, and the seed-16 heavy-tie graphs.
    cases = []
    rng = random.Random(16)
    for _ in range(150):
        net = random_network(rng, denom=2, max_level=1)
        order = random_order(rng, net)
        cases.append((net, order, random_gdof_tuple(rng, net, denom=2, max_level=1)))
    rng = random.Random(29)
    for _ in range(60):
        shape = rng.choice([[2, 2, 2], [2, 2, 2, 2], [3, 3]])
        net = random_convexity_network(rng, cells=len(shape), users_per_cell=shape)
        order = random_order(rng, net)
        achievable = achievable_gdof(net, order, random_grid_allocation(rng, net))
        scale = Fraction(rng.choice([50, 99, 101]), 100)
        cases.append((net, order, GdofTuple({u: v * scale for u, v in achievable.items()})))
    plain = kept = 0
    decided = Counter()
    for net, order, d in cases:
        expected = fraction_bellman_ford(fraction_potential_graph(net, order, None, d))
        for g in (fraction_lengths(build_potential_graph(net, order, None, d)),
                  potential._shifted(potential_skeleton(net, order), d)):
            result, additions, rounds = counted_additions(g)
            assert result == expected
            resum = len(result.vertices) if isinstance(result, Circuit) else 0
            scans, relaxed = skip_rule_scans(len(g.vertices), g.edges, rounds)
            assert additions == relaxed + resum
            assert relaxed < scans or rounds == 1
            plain += scans
            kept += relaxed
            decided[type(g.edges[0][2]), isinstance(result, Circuit)] += 1
    assert kept < plain
    assert min(decided[kind, found] for kind in (int, Fraction) for found in (False, True)) > 50


def test_skeleton_rejects_tuples_outside_its_users(pimac_nonconvex):
    net = pimac_nonconvex
    s = frozenset(net.users[1:])
    sk = potential_skeleton(net, next(enumerate_orders(net, s)), s)
    with pytest.raises(NetworkSpecError):
        potential._shifted(sk, GdofTuple({net.users[0]: Fraction(1, 2)}))


def test_all_circuits_oracle_agrees():
    rng = random.Random(15)
    for _ in range(100):
        net = random_network(rng)
        order = random_order(rng, net)
        d = random_gdof_tuple(rng, net)
        by_ineq = membership(polyhedral_region(net, order), d).member
        assert all_circuits_region_oracle(net, order, d) == by_ineq


def test_oracles_agree_next_to_the_region_boundary():
    # Random lattice tuples mostly miss the region, or land on networks where
    # even 0 is outside it.  Here every tuple is an achievable tuple of the
    # identity order scaled by 1 -+ 1/100, on networks whose region holds 0,
    # so both answers occur a hair from the boundary.
    rng = random.Random(61)
    answers = Counter()
    for _ in range(200):
        net = random_network(rng)
        order = DecodingOrder.identity(net)
        region = polyhedral_region(net, order)
        achievable = GdofTuple(achievable_gdof(net, order, random_grid_allocation(rng, net)))
        if not (membership(region, GdofTuple({})).member and achievable.support()):
            continue
        for scale in (Fraction(99, 100), Fraction(101, 100)):
            d = GdofTuple({u: v * scale for u, v in achievable.d.items()})
            by_ineq = membership(region, d).member
            g = build_potential_graph(net, order, None, d)
            assert feasible_by_negative_cycle(g).feasible == by_ineq, (net, d)
            assert all_circuits_region_oracle(net, order, d) == by_ineq, (net, d)
            answers[scale, by_ineq] += 1
    assert sum(answers.values()) >= 80
    assert answers[Fraction(99, 100), True] >= 20 and answers[Fraction(101, 100), False] >= 10
    assert answers[Fraction(99, 100), False] and answers[Fraction(101, 100), True]


def test_single_user_oracle_reduces_to_cap():
    net = single_user_net("0.8")
    order = DecodingOrder.identity(net)
    g = build_potential_graph(net, order)
    assert sum(1 for _ in iter_simple_circuits(g)) == 1
    assert all_circuits_region_oracle(net, order, GdofTuple({User(1, 1): Fraction(4, 5)}))
    assert not all_circuits_region_oracle(net, order, GdofTuple({User(1, 1): Fraction(1)}))


def test_simple_circuits_each_once_with_their_lengths():
    rng = random.Random(16)
    for _ in range(20):
        net = random_network(rng)
        g = build_potential_graph(net, random_order(rng, net), None, random_gdof_tuple(rng, net))
        n = len(g.vertices)
        circuits = list(iter_simple_circuits(g))
        assert len(circuits) == sum(
            math.comb(n, m) * math.factorial(m - 1) for m in range(2, n + 1)
        )
        assert len({frozenset(zip(c.vertices, c.vertices[1:] + c.vertices[:1]))
                    for c in circuits}) == len(circuits)
        for c in circuits:
            cycle = c.vertices
            assert c.length == sum(
                edge_length(g, cycle[i - 1], cycle[i]) for i in range(len(cycle))
            )


def test_circuit_enumeration_guard():
    alpha = {}
    for l in range(1, 10):
        alpha[(User(1, l), 1)] = Fraction(l)
    net = NetworkSpec.from_alpha(1, [9], alpha)
    with pytest.raises(GuardExceededError):
        all_circuits_region_oracle(
            net, DecodingOrder.identity(net), GdofTuple({})
        )


def test_circuit_guard_counts_circuits(monkeypatch, pimac_nonconvex):
    # The default cap is every circuit of a 9-vertex graph, so each graph
    # the old 9-vertex guard accepted is still accepted.  A member has no
    # negative circuit to stop at: its 4-vertex graph enumerates all 20
    # circuits, decided at a cap of 20 and refused at the 20th under 19.
    assert potential.CIRCUIT_ENUMERATION_MAX_CIRCUITS == sum(
        math.comb(9, m) * math.factorial(m - 1) for m in range(2, 10)
    )
    net = pimac_nonconvex
    order = DecodingOrder.identity(net)
    monkeypatch.setattr(potential, "CIRCUIT_ENUMERATION_MAX_CIRCUITS", 20)
    assert all_circuits_region_oracle(net, order, GdofTuple({}))
    monkeypatch.setattr(potential, "CIRCUIT_ENUMERATION_MAX_CIRCUITS", 19)
    with pytest.raises(GuardExceededError, match="more than 19 circuits"):
        all_circuits_region_oracle(net, order, GdofTuple({}))


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation({User(1, 1): Fraction(1, 2)}, frozenset())
    with pytest.raises(ValueError):
        PowerAllocation({User(1, 1): Fraction(0)}, frozenset({User(1, 1)}))


HEAVY_TIE_WITNESSES = """
import itertools
import random
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from tin_gdof import potential
from tin_gdof.errors import NetworkSpecError, TinGdofError
from tin_gdof.model import User
from tin_gdof.potential import (
    GROUND,
    Circuit,
    PotentialGraph,
    build_potential_graph,
    feasible_by_negative_cycle,
    potential_skeleton,
)
from tin_gdof.regions import GdofTuple
from tin_gdof.sampling import random_gdof_tuple, random_network, random_order

""" + "".join(
    map(inspect.getsource, (EdgeFamily, OracleEdge, OracleGraph, fraction_potential_graph,
                            fraction_bellman_ford, edge_triples, edge_length, graph_pass,
                            CountingEdges, counted_pass))
) + """

if __debug__:
    sys.exit("expected python -O")

rng = random.Random(16)
infeasible_seen = early = 0
for _ in range(400):
    net = random_network(rng, denom=2, max_level=1)
    order = random_order(rng, net)
    d = random_gdof_tuple(rng, net, denom=2, max_level=1)
    g = build_potential_graph(net, order, None, d)
    oracle = fraction_potential_graph(net, order, None, d)
    if g.vertices != oracle.vertices or edge_triples(g) != [
        (e.tail, e.head, e.length) for e in oracle.edges
    ]:
        sys.exit(f"graph of {d} differs from the oracle construction")
    expected = fraction_bellman_ford(oracle)
    if graph_pass(g) != expected:
        sys.exit(f"pass on {d} differs from the oracle pass")
    result, passes = counted_pass(g)
    witness = result.witness
    if (result.allocation is None) == (witness is None):
        sys.exit(f"pass on {d} gave allocation {result.allocation} and witness {witness}")
    if witness is None:
        continue
    infeasible_seen += 1
    early += passes < len(g.vertices)
    if witness != expected:
        sys.exit(f"witness {witness} differs from the oracle's {expected}")
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        sys.exit(f"witness {verts} repeats a vertex")
    total = sum((edge_length(g, verts[i - 1], verts[i]) for i in range(len(verts))), Fraction(0))
    if not total == witness.length < 0:
        sys.exit(f"witness {verts} sums to {total}, reports {witness.length}")
    integer = potential._bellman_ford(potential._shifted(potential_skeleton(net, order), d))
    if integer != witness:
        sys.exit(f"integer pass gave {integer}, the Fraction pass {witness}")
if infeasible_seen <= 20:
    sys.exit(f"only {infeasible_seen} infeasible graphs")
if not early:
    sys.exit("no infeasible graph was decided before round n")
"""


def test_heavy_tie_witnesses_are_negative_simple_circuits_under_python_O():
    # The seed-16 graphs of ``test_negative_cycle_extraction_with_heavy_ties``
    # in a fresh ``python -O`` process, where no ``assert`` of the code runs;
    # the library's graph and both passes must match the oracle's, and some
    # infeasible graph must stop before round n.
    src = str(Path(potential.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", HEAVY_TIE_WITNESSES],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def count_passes(monkeypatch) -> list:
    """Record every graph handed to ``potential._bellman_ford``."""
    graphs = []
    original = potential._bellman_ford

    def counting(g):
        graphs.append(g)
        return original(g)

    monkeypatch.setattr(potential, "_bellman_ford", counting)
    return graphs


def test_one_relaxation_pass_per_decision(monkeypatch, pimac_nonconvex):
    net = pimac_nonconvex
    order = DecodingOrder.identity(net)
    feasible = build_potential_graph(net, order)
    infeasible = build_potential_graph(net, order, None, GdofTuple.from_values(net, [2, 2, 2]))
    passes = count_passes(monkeypatch)
    results = []
    for g in (feasible, infeasible):
        results.append(feasible_by_negative_cycle(g))
        assert passes == [g]
        passes.clear()
    assert results[0].allocation is not None and results[1].witness is not None


def test_general_membership_runs_one_pass_per_order(monkeypatch):
    # Where the convexity conditions fail, a member stops at its witness
    # order and a non-member with full support scans every order, the
    # product of |S_i|!.  Where they hold, every query takes one pass.
    rng = random.Random(17)
    passes = count_passes(monkeypatch)
    members = convex = full_scans = 0
    for _ in range(10):
        net = random_network(rng, max_cells=3, max_users=3)
        convexity = evaluate_conditions(net).convexity_holds
        convex += convexity
        above_every_level = GdofTuple({u: Fraction(5) for u in net.users})
        full_power = PowerAllocation({u: 0 for u in net.users}, frozenset())
        last_order = list(enumerate_orders(net))[-1]
        achievable = GdofTuple(achievable_gdof(net, last_order, full_power))
        for d in (random_gdof_tuple(rng, net), achievable, above_every_level):
            passes.clear()
            result = general_membership(net, d)
            orders = list(enumerate_orders(net, d.support()))
            if convexity:
                assert len(passes) == 1
            elif result.member:
                members += 1
                assert len(passes) == orders.index(result.witness.order) + 1
            else:
                assert len(passes) == len(orders)
        if not convexity:
            assert len(passes) == math.prod(math.factorial(n) for n in net.users_per_cell)
            full_scans += len(passes) > 1
    assert members > 0 and 0 < convex < 10 and full_scans > 0
