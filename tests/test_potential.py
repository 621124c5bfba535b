import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from tin_gdof import potential
from tin_gdof.analysis import achievable_gdof, general_membership
from tin_gdof.conditions import evaluate_conditions
from tin_gdof.errors import GuardExceededError, InfeasibleAllocationError
from tin_gdof.model import DecodingOrder, NetworkSpec, User, enumerate_orders
from tin_gdof.potential import (
    GROUND,
    EdgeFamily,
    PowerAllocation,
    all_circuits_region_oracle,
    build_potential_graph,
    feasible_by_negative_cycle,
    iter_simple_circuits,
    recover_power_allocation,
)
from tin_gdof.regions import GdofTuple, membership, polyhedral_region
from tin_gdof.sampling import random_gdof_tuple, random_network, random_order


def single_user_net(alpha):
    return NetworkSpec.from_alpha(1, [1], {(User(1, 1), 1): Fraction(alpha)})


def test_graph_shape_two_cells_two_users():
    alpha = {}
    for l in (1, 2):
        for k in (1, 2):
            alpha[(User(k, l), k)] = Fraction(l)
            alpha[(User(k, l), 3 - k)] = Fraction(1, 10)
    net = NetworkSpec.from_alpha(2, [2, 2], alpha)
    g = build_potential_graph(net, DecodingOrder.identity(net))
    assert len(g.vertices) == 5
    assert g.family_count(EdgeFamily.INTRA_FORWARD) == 2
    assert g.family_count(EdgeFamily.INTRA_BACKWARD) == 2
    assert g.family_count(EdgeFamily.CROSS) == 8
    assert g.family_count(EdgeFamily.FROM_GROUND) == 4
    assert g.family_count(EdgeFamily.TO_GROUND) == 4
    assert len(g.edges) == 20


def test_single_user_graph_lengths():
    net = single_user_net("0.8")
    d = GdofTuple({User(1, 1): Fraction(1, 4)})
    g = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    assert len(g.vertices) == 2
    assert len(g.edges) == 2
    assert g.length(GROUND, User(1, 1)) == 0
    assert g.length(User(1, 1), GROUND) == Fraction(4, 5) - Fraction(1, 4)


def test_ground_out_edges_always_zero():
    rng = random.Random(11)
    for _ in range(10):
        net = random_network(rng)
        d = random_gdof_tuple(rng, net)
        g = build_potential_graph(net, random_order(rng, net), None, d)
        for e in g.edges:
            if e.family is EdgeFamily.FROM_GROUND:
                assert e.length == 0


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
        (g_id.length(verts[i - 1], verts[i]) for i in range(len(verts))), Fraction(0)
    )
    assert resummed == res.witness.length < 0
    assert len(set(verts)) == len(verts)

    idbar = DecodingOrder(((2, 1), (1,)))
    g_bar = build_potential_graph(net, idbar, None, d)
    assert feasible_by_negative_cycle(g_bar).feasible
    alloc = recover_power_allocation(g_bar)
    assert all(v <= 0 for v in alloc.exponents.values())
    # every difference constraint encoded by the graph holds at the potentials
    pot = dict(alloc.exponents)
    pot[GROUND] = Fraction(0)
    for e in g_bar.edges:
        assert pot[e.head] - pot[e.tail] <= e.length


def test_recover_on_infeasible_graph_raises():
    net = single_user_net("0.5")
    d = GdofTuple({User(1, 1): Fraction(1)})
    g = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    with pytest.raises(InfeasibleAllocationError):
        recover_power_allocation(g)


def test_single_user_recovery_at_capacity():
    net = single_user_net("0.8")
    d = GdofTuple({User(1, 1): Fraction(4, 5)})
    g = build_potential_graph(net, DecodingOrder.identity(net), None, d)
    alloc = recover_power_allocation(g)
    assert alloc[User(1, 1)] == 0  # tight bound forces full power


def test_zero_tuple_recovery_contract():
    # the zero tuple may itself be infeasible (negative cyclic bound -> empty
    # region); the recovery contract applies to feasible graphs only
    rng = random.Random(12)
    feasible_seen = 0
    for _ in range(20):
        net = random_network(rng)
        order = random_order(rng, net)
        g = build_potential_graph(net, order, None, GdofTuple.zero(net))
        if not feasible_by_negative_cycle(g).feasible:
            continue
        feasible_seen += 1
        alloc = recover_power_allocation(g)
        assert all(v <= 0 for v in alloc.exponents.values())
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
                (g.length(verts[i - 1], verts[i]) for i in range(len(verts))),
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
                (g.length(verts[i - 1], verts[i]) for i in range(len(verts))),
                Fraction(0),
            )
            assert total == res.witness.length < 0
    assert infeasible_seen > 20


def test_all_circuits_oracle_agrees():
    rng = random.Random(15)
    for _ in range(100):
        net = random_network(rng)
        order = random_order(rng, net)
        d = random_gdof_tuple(rng, net)
        by_ineq = membership(polyhedral_region(net, order), d).member
        assert all_circuits_region_oracle(net, order, d) == by_ineq


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
            assert c.length == sum(g.length(cycle[i - 1], cycle[i]) for i in range(len(cycle)))


def test_circuit_enumeration_guard():
    alpha = {}
    for l in range(1, 10):
        alpha[(User(1, l), 1)] = Fraction(l)
    net = NetworkSpec.from_alpha(1, [9], alpha)
    with pytest.raises(GuardExceededError):
        all_circuits_region_oracle(
            net, DecodingOrder.identity(net), GdofTuple.zero(net)
        )


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation({User(1, 1): Fraction(1, 2)}, frozenset())
    with pytest.raises(ValueError):
        PowerAllocation({User(1, 1): Fraction(0)}, frozenset({User(1, 1)}))


HEAVY_TIE_WITNESSES = """
import random
import sys
from fractions import Fraction

from tin_gdof.errors import InfeasibleAllocationError
from tin_gdof.potential import build_potential_graph, feasible_by_negative_cycle, recover_power_allocation
from tin_gdof.sampling import random_gdof_tuple, random_network, random_order

if __debug__:
    sys.exit("expected python -O")

rng = random.Random(16)
infeasible_seen = 0
for _ in range(400):
    net = random_network(rng, denom=2, max_level=1)
    order = random_order(rng, net)
    d = random_gdof_tuple(rng, net, denom=2, max_level=1)
    g = build_potential_graph(net, order, None, d)
    witness = feasible_by_negative_cycle(g).witness
    if witness is None:
        continue
    infeasible_seen += 1
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        sys.exit(f"witness {verts} repeats a vertex")
    total = sum((g.length(verts[i - 1], verts[i]) for i in range(len(verts))), Fraction(0))
    if not total == witness.length < 0:
        sys.exit(f"witness {verts} sums to {total}, reports {witness.length}")
    try:
        recover_power_allocation(g)
    except InfeasibleAllocationError as exc:
        if exc.circuit != witness:
            sys.exit(f"recovery witness {exc.circuit} differs from {witness}")
    else:
        sys.exit("recovery on an infeasible graph did not raise")
if infeasible_seen <= 20:
    sys.exit(f"only {infeasible_seen} infeasible graphs")
"""


def test_heavy_tie_witnesses_are_negative_simple_circuits_under_python_O():
    # The seed-16 graphs of ``test_negative_cycle_extraction_with_heavy_ties``
    # in a fresh ``python -O`` process, where no ``assert`` of the code runs.
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
    for g in (feasible, infeasible):
        feasible_by_negative_cycle(g)
        assert passes == [g]
        passes.clear()
    recover_power_allocation(feasible)
    assert passes == [feasible]
    passes.clear()
    with pytest.raises(InfeasibleAllocationError) as info:
        recover_power_allocation(infeasible)
    assert passes == [infeasible]
    assert info.value.circuit == feasible_by_negative_cycle(infeasible).witness


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
