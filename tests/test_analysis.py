import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import outer_bound_user_partition, pimac
from tin_gdof import _lp, analysis, conditions, potential, regions
from tin_gdof.analysis import (
    FlowNetwork,
    GeneralMembership,
    MembershipWitness,
    _system,
    achievable_gdof,
    achievable_rates,
    gap_report,
    gdof_dominates,
    gdof_outer_bound,
    general_membership,
    max_weighted_gdof,
    outer_bound_rates,
    region_includes,
    vertices,
)
from tin_gdof.errors import (
    ConditionsNotMetError,
    EmptyRegionError,
    GuardExceededError,
    NetworkSpecError,
    TinGdofError,
)
from tin_gdof.model import (
    DecodingOrder,
    FiniteSnrSpec,
    NetworkSpec,
    User,
    enumerate_orders,
    finite_snr_from_document,
    load_finite_snr,
    load_network,
)
from tin_gdof.potential import (
    GROUND,
    PowerAllocation,
    build_potential_graph,
    feasible_by_negative_cycle,
)
from tin_gdof.regions import GdofTuple, membership, polyhedral_region
from tin_gdof.sampling import (
    finite_snr_from_network,
    random_convexity_network,
    random_gdof_tuple,
    random_grid_allocation,
    random_network,
    random_optimality_network,
    random_order,
)

#: Comparison slack for finite-SNR rates and gaps, in bits: the rates are
#: sums of float base-2 logarithms, which no exact value checks.
RATE_TOL_BITS = 1e-9


def test_general_membership_zero_tuple(pimac_nonconvex):
    res = general_membership(pimac_nonconvex, GdofTuple({}))
    assert res.member
    assert bool(res) == res.member
    assert res.witness.subnetwork == frozenset()
    assert res.witness.allocation.off == frozenset(pimac_nonconvex.users)


def test_general_membership_reversed_order_witness(pimac_nonconvex):
    net = pimac_nonconvex
    d = GdofTuple.from_values(net, ["0.2", "0.5", "1.0"])
    res = general_membership(net, d)
    assert res.member
    w = res.witness
    assert w.order.per_cell == ((2, 1), (1,))
    ceil = achievable_gdof(net, w.order, w.allocation)
    assert all(ceil[u] >= d[u] for u in net.users)


def test_gdof_dominates_compares_with_the_achievable_gdof(pimac_nonconvex):
    net = pimac_nonconvex
    order = DecodingOrder(((2, 1), (1,)))
    alloc = PowerAllocation({u: Fraction(-1, 10) for u in net.users}, frozenset())
    ceil = achievable_gdof(net, order, alloc)
    assert gdof_dominates(net, order, alloc, GdofTuple(ceil))
    for u in net.users:
        raised = GdofTuple({**ceil, u: ceil[u] + Fraction(1, 20)})
        assert not gdof_dominates(net, order, alloc, raised), u


def pimac_grid_oracle_reachable(net, d_target, step=0.05, floor=-3.0):
    """Float grid sweep over power exponents and both orders (independent path)."""
    a11_1 = float(net.alpha(User(1, 1), 1))
    a11_2 = float(net.alpha(User(1, 2), 1))
    a12_1 = float(net.alpha(User(1, 1), 2))
    a12_2 = float(net.alpha(User(1, 2), 2))
    a22 = float(net.alpha(User(2, 1), 2))
    a21 = float(net.alpha(User(2, 1), 1))
    grid = np.arange(0.0, floor - step / 2, -step)
    r1, r2, r3 = np.meshgrid(grid, grid, grid, indexing="ij")
    t1, t2, t3 = (float(x) for x in d_target)
    tol = 1e-9

    def clip0(x):
        return np.maximum(x, 0.0)

    cross1 = clip0(r3 + a21)  # interference into cell 1
    cross2 = clip0(np.maximum(r1 + a12_1, r2 + a12_2))  # interference into cell 2
    ok = np.zeros(r1.shape, dtype=bool)
    # ascending order: slot 2 decoded first, slot 1 last
    d11 = clip0(r1 + a11_1 - cross1)
    d12 = clip0(r2 + a11_2 - clip0(np.maximum(r1 + a11_1, cross1 - a21 + a21)))
    d12 = clip0(r2 + a11_2 - np.maximum(clip0(r1 + a11_1), cross1))
    d21 = clip0(r3 + a22 - cross2)
    ok |= (d11 >= t1 - tol) & (d12 >= t2 - tol) & (d21 >= t3 - tol)
    # reversed order: slot 1 decoded first, slot 2 last
    e12 = clip0(r2 + a11_2 - cross1)
    e11 = clip0(r1 + a11_1 - np.maximum(clip0(r2 + a11_2), cross1))
    ok |= (e11 >= t1 - tol) & (e12 >= t2 - tol) & (d21 >= t3 - tol)
    return bool(ok.any())


def test_general_membership_scaled_tuple_not_member(pimac_nonconvex):
    net = pimac_nonconvex
    base = [Fraction(1, 5), Fraction(1, 2), Fraction(1)]
    scaled = [Fraction(13, 10) * v for v in base]
    d = GdofTuple.from_values(net, scaled)
    res = general_membership(net, d)
    assert not res.member
    assert bool(res) == res.member
    assert not pimac_grid_oracle_reachable(net, scaled)
    # sanity: the unscaled tuple is reachable on the same grid
    assert pimac_grid_oracle_reachable(net, base)


def full_scan_membership(net, d):
    """General membership by scanning every decode order of the support,
    without the convexity shortcut."""
    support = d.support()
    off = frozenset(net.full_subnetwork - support)
    for order in enumerate_orders(net, support):
        res = feasible_by_negative_cycle(build_potential_graph(net, order, support, d), off)
        if res:
            return GeneralMembership(True, MembershipWitness(order, support, res.allocation))
    return GeneralMembership(False)


def convexity_queries(rng, net):
    """An achievable tuple, the same scaled by 11/10 with its zeros raised
    to 1/2 (mostly a non-member), and a random lattice tuple."""
    order = random_order(rng, net)
    alloc = random_grid_allocation(rng, net, Fraction(1, 20), -1)
    achievable = GdofTuple(achievable_gdof(net, order, alloc))
    raised = GdofTuple(
        {u: v * Fraction(11, 10) if v else Fraction(1, 2) for u, v in achievable.d.items()}
    )
    return achievable, raised, random_gdof_tuple(rng, net)


def test_general_membership_shortcut_matches_full_scan():
    rng = random.Random(41)
    shapes = [[1, 2], [2, 2], [3, 1], [1, 2, 3], [2, 2, 2], [3, 3, 3]]
    members = nonmembers = full_3x3 = 0
    for i in range(24):
        shape = shapes[i % len(shapes)]
        net = random_convexity_network(rng, cells=len(shape), users_per_cell=shape)
        for d in convexity_queries(rng, net):
            got, want = general_membership(net, d), full_scan_membership(net, d)
            assert got == want, (net, d)
            if got.member:
                members += 1
                ceil = achievable_gdof(net, got.witness.order, got.witness.allocation)
                assert all(ceil[u] >= d[u] for u in net.users)
            else:
                nonmembers += 1
                full_3x3 += shape == [3, 3, 3] and len(d.support()) == 9
    assert members > 20 and nonmembers > 20 and full_3x3 >= 4


def test_convexity_is_checked_once_per_network(
    monkeypatch, pimac_optimal, pimac_convex_only, pimac_nonconvex
):
    calls = []
    original = conditions.condition_flags

    def counting(lv):
        calls.append(lv)
        return original(lv)

    monkeypatch.setattr(conditions, "condition_flags", counting)
    nets = [pimac_optimal, pimac_convex_only, pimac_nonconvex]
    assert calls == []  # not at construction
    for i in range(4):
        for net in nets:
            for scale in (2, 3):
                d = GdofTuple({u: scale * net.direct(u) for u in net.users})
                assert not general_membership(net, d).member
            assert len(calls) == (len(nets) if i else nets.index(net) + 1)
    assert [net.convexity_holds for net in nets] == [True, True, False]
    assert len(calls) == len(nets)


def test_optimality_is_read_from_the_one_flag_pass(monkeypatch, pimac_optimal, pimac_convex_only):
    # The outer bounds, the user partition and the constructive samplers read
    # the flags that one ``condition_flags`` pass per network caches; none
    # builds a witness report.
    calls = []
    original = conditions.condition_flags

    def counting(lv):
        calls.append(lv)
        return original(lv)

    def refuse(net):
        raise AssertionError("a witness report was built to read one flag")

    monkeypatch.setattr(conditions, "condition_flags", counting)
    monkeypatch.setattr(conditions, "evaluate_conditions", refuse)
    for net, holds in ((pimac_optimal, True), (pimac_convex_only, False)):
        fs = finite_snr_from_network(net, 1e4)
        for _ in range(2):
            assert net.optimality_holds is holds
            outer_bound_user_partition(net, 1, 2, 2)
            for bound in (lambda: gdof_outer_bound(net), lambda: outer_bound_rates(fs)):
                if holds:
                    bound()
                else:
                    with pytest.raises(ConditionsNotMetError):
                        bound()
    assert len(calls) == 2
    rng = random.Random(3)
    for _ in range(3):
        assert random_optimality_network(rng).optimality_holds
        assert random_convexity_network(rng).convexity_holds


SHORTCUT_UNDER_O = """
import random
import sys
from fractions import Fraction

from tin_gdof import potential
from tin_gdof.analysis import general_membership
from tin_gdof.conditions import evaluate_conditions
from tin_gdof.model import enumerate_orders
from tin_gdof.regions import GdofTuple
from tin_gdof.sampling import random_convexity_network, random_network

if __debug__:
    sys.exit("expected python -O")

passes = []
original = potential._bellman_ford
potential._bellman_ford = lambda g: passes.append(g) or original(g)
rng = random.Random(43)
nets = [random_convexity_network(rng, cells=3, users_per_cell=[2, 2, 2])]
nets += [random_network(rng, cells=2, users_per_cell=[3, 2]) for _ in range(6)]
seen = set()
for net in nets:
    convex = evaluate_conditions(net).convexity_holds
    passes.clear()
    if general_membership(net, GdofTuple({u: Fraction(5) for u in net.users})).member:
        sys.exit("a tuple above every level is a member")
    want = 1 if convex else len(list(enumerate_orders(net)))
    if len(passes) != want:
        sys.exit(f"{len(passes)} passes, expected {want}")
    seen.add(convex)
if seen != {True, False}:
    sys.exit(f"only networks with convexity {seen}")
"""


def test_general_membership_pass_counts_under_python_O():
    # One pass on a convexity network, every order elsewhere, in a fresh
    # ``python -O`` process, where no ``assert`` of the code runs.
    src = str(Path(regions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SHORTCUT_UNDER_O],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_max_weighted_zero_weights(pimac_nonconvex):
    reg = polyhedral_region(pimac_nonconvex, DecodingOrder.identity(pimac_nonconvex))
    opt = max_weighted_gdof(reg, {u: Fraction(0) for u in pimac_nonconvex.users})
    assert opt.value == 0


def test_max_weighted_gdof_rejects_weights_on_unknown_users():
    net = load_network(Path(__file__).resolve().parent.parent / "docs" / "example-network.json")
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    with pytest.raises(NetworkSpecError, match=r"u\(9,9\)"):
        max_weighted_gdof(reg, {User(9, 9): 5})
    # A weight on a user the region forces to zero is allowed.
    s = frozenset(net.users[1:])
    sub = polyhedral_region(net, next(enumerate_orders(net, s)), s)
    assert max_weighted_gdof(sub, {net.users[0]: 5}).value == 0


def test_max_weighted_single_mac_sum():
    alpha = {(User(1, l), 1): Fraction(l, 2) for l in (1, 2, 3)}
    net = NetworkSpec.from_alpha(1, [3], alpha)
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    opt = max_weighted_gdof(reg, {u: Fraction(1) for u in net.users})
    assert opt.value == Fraction(3, 2)  # the largest direct level


def test_max_weighted_pimac_sum_matches_closed_form(pimac_optimal):
    net = pimac_optimal
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    opt = max_weighted_gdof(reg, {u: Fraction(1) for u in net.users})
    # max over the two cell-1 depths of (direct - cross) plus cell 2's margin
    expected = max(
        Fraction(1) - Fraction(3, 10), Fraction(3, 2) - Fraction(2, 5)
    ) + (Fraction(1) - Fraction(1, 5))
    assert opt.value == expected == Fraction(19, 10)
    assert membership(reg, opt.argmax).member


def test_lp_matches_vertex_maximum_randomized():
    rng = random.Random(31)
    nonempty = 0
    for _ in range(20):
        net = random_network(rng)
        order = random_order(rng, net)
        reg = polyhedral_region(net, order)
        verts = vertices(reg)
        weights = {u: Fraction(rng.randint(0, 8), 4) for u in net.users}
        if not verts:
            with pytest.raises(EmptyRegionError):
                max_weighted_gdof(reg, weights)
            continue
        nonempty += 1
        opt = max_weighted_gdof(reg, weights)
        best = max(
            sum((weights[u] * v[u] for u in net.users), Fraction(0)) for v in verts
        )
        assert opt.value == best
    assert nonempty > 0


# The exact tableau simplex, the oracle for the min-cost-flow optimizer.


class UnboundedProgramError(TinGdofError):
    """The LP is unbounded (cannot happen for well-formed GDoF regions)."""


def simplex_max(
    objective: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize objective . x subject to rows . x <= rhs and x >= 0.

    Requires rhs >= 0 (the origin is then feasible); raises
    EmptyRegionError otherwise.
    """
    n, m = len(objective), len(rows)
    if any(b < 0 for b in rhs):
        raise EmptyRegionError("system is infeasible at the origin")
    # Tableau columns: n structural + m slacks + rhs.
    tab = [list(rows[i]) + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    cost = list(objective) + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)  # Bland
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise UnboundedProgramError("objective is unbounded over the region")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                factor = tab[i][enter]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[leave])]
        if cost[enter]:
            factor = cost[enter]
            cost = [a - factor * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    return -cost[-1], x


def _check_flow_against_simplex(net, order, s, weights):
    """The min-cost-flow optimum of a fixed-order region against the simplex
    over its explicit, merged inequality system.  Returns whether the region
    is nonempty."""
    reg = polyhedral_region(net, order, s)
    users, rows, rhs = _system(reg)
    if any(b < 0 for b in rhs):
        with pytest.raises(EmptyRegionError):
            max_weighted_gdof(reg, weights)
        return False
    opt = max_weighted_gdof(reg, weights)
    value, _ = simplex_max([weights[u] for u in users], rows, rhs)
    assert opt.value == value
    assert sum(weights[u] * opt.argmax[u] for u in net.users) == opt.value
    assert feasible_by_negative_cycle(build_potential_graph(net, order, s, opt.argmax))
    return True


def test_flow_optimum_matches_simplex_on_explicit_system():
    # Test 07's networks: drawing all 100 weight vectors per network keeps the
    # random stream, and with it the networks, those of test 07.
    rng = random.Random(107)
    for _ in range(100):
        net = random_optimality_network(rng, max_cells=3, max_users=2)
        draws = [{u: Fraction(rng.randint(0, 12), 4) for u in net.users} for _ in range(100)]
        identity = DecodingOrder.identity(net)
        for weights in draws[::5]:
            assert _check_flow_against_simplex(net, identity, None, weights)
    # Random orders and subnetworks of unconstrained networks, zero weights
    # and empty regions included.
    rng = random.Random(43)
    nonempty = empty = 0
    for _ in range(300):
        net = random_network(rng, max_cells=4, max_users=2)
        s = frozenset(u for u in net.users if rng.random() < 0.75)
        order = random_order(rng, net, s)
        weights = {u: Fraction(rng.randint(0, 12), rng.randint(1, 4)) for u in net.users}
        if _check_flow_against_simplex(net, order, s, weights):
            nonempty += 1
        else:
            empty += 1
    assert nonempty > 100 and empty > 50


def test_max_weighted_gdof_never_builds_the_inequality_list(monkeypatch, pimac_optimal):
    net = pimac_optimal
    with pytest.raises(NetworkSpecError):  # validated at call time, not on first use
        polyhedral_region(net, DecodingOrder(((1,), (1,))))
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    weights = {u: Fraction(1) for u in net.users}

    def refuse(*args):
        raise AssertionError("the explicit inequality list was built")

    monkeypatch.setattr(regions, "bound_indices", refuse)
    assert max_weighted_gdof(reg, weights).value == Fraction(19, 10)
    assert max_weighted_gdof(gdof_outer_bound(net), weights).value == Fraction(19, 10)


def test_flow_network_is_built_once_per_region(monkeypatch, pimac_optimal):
    net = pimac_optimal
    built = []
    original = analysis.potential_skeleton

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "potential_skeleton", counting)
    regs = [polyhedral_region(net, DecodingOrder.identity(net)), gdof_outer_bound(net)]
    rng = random.Random(44)
    for _ in range(5):
        for reg in regs:
            weights = {u: Fraction(rng.randint(0, 8), 4) for u in net.users}
            fresh = polyhedral_region(*reg.source)
            assert max_weighted_gdof(reg, weights) == max_weighted_gdof(fresh, weights)
    assert len(built) == 2 + 5 * 2
    assert [reg.flow_network for reg in regs] == [analysis.flow_network(reg) for reg in regs]


def _corrupted_flow(monkeypatch, corrupt):
    """Route ``max_weighted_gdof`` through a min-cost flow whose result
    ``corrupt(cost, p)`` alters."""
    original = analysis._flow.min_cost_flow

    def corrupted(*args):
        return corrupt(*original(*args))

    monkeypatch.setattr(analysis._flow, "min_cost_flow", corrupted)


def _moved(p, node, step):
    p = list(p)
    p[node] += step
    return p


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("user", range(3))
def test_max_weighted_gdof_refuses_potentials_off_by_one(monkeypatch, pimac_optimal, user, step):
    # User i's out-node is 2i + 2; with every weight positive, moving it
    # changes the dual objective, so the certificate must fail.
    region = polyhedral_region(pimac_optimal, DecodingOrder.identity(pimac_optimal))
    weights = {u: 1 for u in pimac_optimal.users}
    _corrupted_flow(monkeypatch, lambda cost, p: (cost, _moved(p, 2 * user + 2, step)))
    with pytest.raises(TinGdofError):
        max_weighted_gdof(region, weights)


def test_max_weighted_gdof_refuses_a_cost_off_by_one(monkeypatch, pimac_optimal):
    region = polyhedral_region(pimac_optimal, DecodingOrder.identity(pimac_optimal))
    weights = {u: 1 for u in pimac_optimal.users}
    _corrupted_flow(monkeypatch, lambda cost, p: (cost + 1, p))
    with pytest.raises(TinGdofError):
        max_weighted_gdof(region, weights)


def fraction_flow_network(net, order, s):
    """``analysis.flow_network`` built from the ``Fraction`` potential graph
    and its ``Fraction`` Bellman-Ford pass: the oracle for the skeleton."""
    g = build_potential_graph(net, order, s)
    res = feasible_by_negative_cycle(g)
    if not res:
        raise EmptyRegionError(
            f"region is empty: no feasible power allocation: circuit {res.witness.vertices} "
            f"has length {res.witness.length}"
        )
    start = res.allocation
    den = net.den
    users = g.vertices[1:]
    node_in = {GROUND: 0, **{u: 2 * i + 1 for i, u in enumerate(users)}}
    node_out = {GROUND: 0, **{u: 2 * i + 2 for i, u in enumerate(users)}}
    v = g.vertices
    arcs = [
        (node_out[v[t]], node_in[v[h]], int(Fraction(c, g.den) * den))
        for t, h, c in g.edges
    ]
    arcs += [(node_in[u], node_out[u], 0) for u in users]
    start_potential = [0]
    for u in users:
        start_potential += [start[u].numerator * (den // start[u].denominator)] * 2
    return FlowNetwork(den, users, tuple(arcs), tuple(start_potential))


def test_flow_network_matches_fraction_construction():
    rng = random.Random(45)
    nonempty = empty = 0
    for i in range(200):
        sample = random_optimality_network if i % 2 else random_network
        net = sample(rng, cells=rng.randint(2, 6), denom=rng.choice([2, 3, 20]))
        s = frozenset(u for u in net.users if rng.random() < 0.75)
        order = random_order(rng, net, s)
        region = polyhedral_region(net, order, s)
        try:
            expected = fraction_flow_network(net, order, s)
        except EmptyRegionError as exc:
            empty += 1
            with pytest.raises(EmptyRegionError) as info:
                analysis.flow_network(region)
            assert str(info.value) == str(exc)
        else:
            nonempty += 1
            assert analysis.flow_network(region) == expected
    assert nonempty > 100 and empty > 50


def test_set_up_runs_no_fraction_relaxation(monkeypatch, pimac_optimal):
    # Region set-up relaxes only integer lengths: every graph handed to
    # ``_bellman_ford``, at its binding in ``potential`` (reached through
    # ``feasible_by_negative_cycle``) and in ``analysis`` (``flow_network``),
    # has int lengths, and no Fraction potential graph is built.
    def refuse(*args):
        raise AssertionError("a Fraction potential graph was built")

    relaxed = []
    original = potential._bellman_ford

    def integer_only(g):
        relaxed.append(g)
        assert all(type(c) is int for _, _, c in g.edges), "a Fraction graph was relaxed"
        return original(g)

    monkeypatch.setattr(potential, "_bellman_ford", integer_only)
    monkeypatch.setattr(analysis, "_bellman_ford", integer_only)
    monkeypatch.setattr(analysis, "_fraction_graph", refuse)
    net = pimac_optimal
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    assert max_weighted_gdof(reg, {u: 1 for u in net.users}).value == Fraction(19, 10)
    assert len(relaxed) == 1
    rep = gap_report(finite_snr_from_network(net, 1e4))
    assert rep.corners_used == len(vertices(reg)) > 1
    assert len(relaxed) == 1 + rep.corners_used


def _networkx_flow_value(net, order, weights):
    """The same min-cost flow as the compact optimizer, solved by networkx."""
    nx = pytest.importorskip("networkx")
    g = build_potential_graph(net, order)
    den = net.den
    den_w = math.lcm(*(w.denominator for w in weights.values()))
    flow = nx.DiGraph()
    flow.add_node("ground", demand=0)
    for u in g.vertices[1:]:
        w = int(weights[u] * den_w)
        flow.add_node(("out", u), demand=-w)
        flow.add_node(("in", u), demand=w)
        flow.add_edge(("in", u), ("out", u), weight=0)
    for t, h, c in g.edges:
        tail = "ground" if t == 0 else ("out", g.vertices[t])
        head = "ground" if h == 0 else ("in", g.vertices[h])
        flow.add_edge(tail, head, weight=int(Fraction(c, g.den) * den))
    cost, _ = nx.network_simplex(flow)
    return Fraction(cost, den * den_w)


@pytest.mark.parametrize("cells", [6, 8, 10])
def test_flow_optimum_matches_networkx_at_scale(cells):
    pytest.importorskip("networkx")
    rng = random.Random(44 + cells)
    for _ in range(5):
        net = random_optimality_network(rng, cells=cells, users_per_cell=[2] * cells)
        order = DecodingOrder.identity(net)
        weights = {u: Fraction(rng.randint(0, 12), 4) for u in net.users}
        opt = max_weighted_gdof(polyhedral_region(net, order), weights)
        assert opt.value == _networkx_flow_value(net, order, weights)
        assert sum(weights[u] * opt.argmax[u] for u in net.users) == opt.value
        assert feasible_by_negative_cycle(build_potential_graph(net, order, None, opt.argmax))


def test_vertices_single_user():
    net = NetworkSpec.from_alpha(1, [1], {(User(1, 1), 1): Fraction(1)})
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    verts = vertices(reg)
    assert [v[User(1, 1)] for v in verts] == [Fraction(0), Fraction(1)]


def test_vertices_two_user_mac():
    alpha = {(User(1, 1), 1): Fraction(3, 5), (User(1, 2), 1): Fraction(1)}
    net = NetworkSpec.from_alpha(1, [2], alpha)
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    got = {(v[User(1, 1)], v[User(1, 2)]) for v in vertices(reg)}
    assert got == {
        (Fraction(0), Fraction(0)),
        (Fraction(3, 5), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(3, 5), Fraction(2, 5)),
    }


def test_vertices_guard():
    alpha = {}
    for k in range(1, 4):
        for l in (1, 2, 3):
            for i in range(1, 4):
                alpha[(User(k, l), i)] = Fraction(l) if i == k else Fraction(0)
    net = NetworkSpec.from_alpha(3, [3, 3, 3], alpha)
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    with pytest.raises(GuardExceededError):
        vertices(reg)


def test_vertices_of_four_cells_are_the_product_of_cell_vertices():
    # Zero cross levels make the region the product of the cells' MAC
    # regions.  Its 88 constraints in 8 dimensions have C(88, 8) ~ 6.4e10
    # candidate bases, beyond any basis enumeration.
    levels = [
        (Fraction(1, 2), Fraction(1)),
        (Fraction(3, 5), Fraction(7, 5)),
        (Fraction(2, 3), Fraction(3, 2)),
        (Fraction(1, 4), Fraction(9, 10)),
    ]
    alpha = {
        (User(k, l), i): v if i == k else Fraction(0)
        for k, cell in enumerate(levels, start=1)
        for l, v in enumerate(cell, start=1)
        for i in range(1, 5)
    }
    net = NetworkSpec.from_alpha(4, [2] * 4, alpha)
    got = vertices(polyhedral_region(net, DecodingOrder.identity(net)))
    per_cell = []
    for cell in levels:
        single = NetworkSpec.from_alpha(1, [2], {(User(1, l), 1): v for l, v in enumerate(cell, 1)})
        corners = vertices(polyhedral_region(single, DecodingOrder.identity(single)))
        per_cell.append([tuple(v[u] for u in single.users) for v in corners])
    assert [tuple(v[u] for u in net.users) for v in got] == [
        sum(parts, ()) for parts in itertools.product(*per_cell)
    ]
    assert len(got) == 4**4


def test_vertices_respect_membership():
    rng = random.Random(32)
    for _ in range(15):
        net = random_network(rng)
        order = random_order(rng, net)
        reg = polyhedral_region(net, order)
        for v in vertices(reg):
            assert membership(reg, v).member


def _solve_in_place(a):
    """Gauss-Jordan elimination of the augmented square system ``a``;
    False when it is singular."""
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return True


def basis_vertices(rows, rhs):
    """Vertices of {x >= 0, rows . x <= rhs} by brute force over bases, in
    plain ``Fraction`` arithmetic: the oracle for ``_lp.enumerate_vertices``.

    A vertex is a feasible point at which n linearly independent constraints
    are tight.  Each choice of k free coordinates (the others tight at zero)
    and k tight rows is a square system over the free coordinates.  Rows
    that agree on the free coordinates take the same value at such a point,
    so only the one with the smallest rhs can be tight where all hold.
    """
    n = len(rows[0]) if rows else 0
    found = set()
    for k in range(n + 1):
        for free in itertools.combinations(range(n), k):
            lowest = {}
            for row, b in zip(rows, rhs):
                key = tuple(row[j] for j in free)
                lowest[key] = min(b, lowest.get(key, b))
            for tight in itertools.combinations(lowest.items(), k):
                a = [list(key) + [b] for key, b in tight]
                if not _solve_in_place(a):
                    continue
                x = [Fraction(0)] * n
                for j, row in zip(free, a):
                    x[j] = row[-1]
                if all(v >= 0 for v in x) and all(
                    sum(c * v for c, v in zip(row, x)) <= b for row, b in zip(rows, rhs)
                ):
                    found.add(tuple(x))
    return sorted(found)


def test_vertices_match_basis_enumeration():
    # The oracle solves C(m + n, n) systems, so 3-cell networks stop at 4
    # active users and only smaller ones reach 5.  Levels over denominator 1
    # tie often, which makes degenerate vertices.
    rng = random.Random(71)
    checked = nonempty = 0
    while checked < 200:
        cells = rng.randint(1, 3)
        net = random_network(
            rng, cells=cells, max_users=2 if cells == 3 else 3, denom=rng.choice([1, 2, 20])
        )
        s = frozenset(u for u in net.users if rng.random() < 0.8)
        if len(s) > (4 if cells == 3 else 5):
            continue
        order = random_order(rng, net, s) if rng.random() < 0.7 else DecodingOrder.identity(net, s)
        _, rows, rhs = _system(polyhedral_region(net, order, s))
        expected = basis_vertices(rows, rhs)
        assert _lp.enumerate_vertices(rows, rhs) == expected
        checked += 1
        nonempty += bool(expected)
    assert nonempty > 100
    # General rational systems, unbounded ones included: rays of the
    # homogenized cone at t = 0 are recession directions, not vertices.
    for _ in range(100):
        n = rng.randint(1, 3)
        rows = [
            [Fraction(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, 5))
        ]
        rhs = [Fraction(rng.randint(-1, 6), rng.randint(1, 4)) for _ in rows]
        assert _lp.enumerate_vertices(rows, rhs) == basis_vertices(rows, rhs)


def region_includes_by_vertices(outer, inner):
    return all(membership(outer, v).member for v in vertices(inner))


def test_region_includes_self(pimac_nonconvex):
    reg = polyhedral_region(pimac_nonconvex, DecodingOrder.identity(pimac_nonconvex))
    assert region_includes(reg, reg)


def test_region_inclusion_by_regime(pimac_optimal, pimac_convex_only, pimac_nonconvex):
    idbar = DecodingOrder(((2, 1), (1,)))
    for net in (pimac_optimal, pimac_convex_only):
        outer = polyhedral_region(net, DecodingOrder.identity(net))
        inner = polyhedral_region(net, idbar)
        assert region_includes(outer, inner)
    outer = polyhedral_region(pimac_nonconvex, DecodingOrder.identity(pimac_nonconvex))
    inner = polyhedral_region(pimac_nonconvex, idbar)
    assert not region_includes(outer, inner)
    assert not region_includes(inner, outer)


def test_region_includes_checks_the_outer_forced_zeros(pimac_optimal):
    # The region of {1.1, 2.1} forces 1.2 to zero, which the full region does not.
    net = pimac_optimal
    s = {User(1, 1), User(2, 1)}
    sub = polyhedral_region(net, DecodingOrder.identity(net, s), s)
    full = polyhedral_region(net, DecodingOrder.identity(net))
    assert region_includes(full, sub)
    assert not region_includes(sub, full)
    assert not region_includes_by_vertices(sub, full)


def test_region_includes_agrees_with_vertex_method():
    rng = random.Random(33)
    for _ in range(40):
        net = random_network(rng, max_cells=2)
        orders = list(enumerate_orders(net))
        a = polyhedral_region(net, orders[rng.randrange(len(orders))])
        b = polyhedral_region(net, orders[rng.randrange(len(orders))])
        assert region_includes(a, b) == region_includes_by_vertices(a, b)


def test_mac_identity_order_dominates():
    # single cell: any decode order's region sits inside the ascending one
    rng = random.Random(34)
    for _ in range(10):
        net = random_network(rng, cells=1, users_per_cell=[3])
        outer = polyhedral_region(net, DecodingOrder.identity(net))
        for order in enumerate_orders(net):
            assert region_includes(outer, polyhedral_region(net, order))


def test_gdof_outer_bound_matches_region(pimac_optimal):
    outer = gdof_outer_bound(pimac_optimal)
    achievable = polyhedral_region(pimac_optimal, DecodingOrder.identity(pimac_optimal))
    assert outer.same_system(achievable)


def test_rate_bounds_in_outer_bound_row_positions():
    rng = random.Random(41)
    for _ in range(15):
        net = random_optimality_network(rng, max_cells=4, max_users=3)
        rows = gdof_outer_bound(net).inequalities
        bounds = outer_bound_rates(finite_snr_from_network(net, 1e4))
        assert [b.users for b in bounds] == [q.users for q in rows]
        cells_of = [{u.cell for u in q.users} for q in rows]
        assert [b.kind for b in bounds] == [
            "cell" if len(cells) == 1 else "cyclic" for cells in cells_of
        ]


def test_gdof_outer_bound_refuses_without_conditions(pimac_nonconvex):
    with pytest.raises(ConditionsNotMetError):
        gdof_outer_bound(pimac_nonconvex)


def test_gdof_outer_bound_zero_cross_is_mac_product():
    net = pimac("0.5", "1.0", "0.7", "0", "0", "0")
    outer = gdof_outer_bound(net)
    by_set = {q.users: q.rhs for q in outer.inequalities}
    # the cyclic bound degenerates to the sum of single-cell bounds
    u11, u12, u21 = User(1, 1), User(1, 2), User(2, 1)
    assert by_set[frozenset([u11, u21])] == Fraction(1, 2) + Fraction(7, 10)
    assert by_set[frozenset([u11, u12, u21])] == Fraction(1) + Fraction(7, 10)


def single_link_fs(p, level):
    return FiniteSnrSpec(p, {(User(1, 1), 1): p**level})


def test_outer_bound_rates_single_link():
    bounds = outer_bound_rates(single_link_fs(100.0, 1.0))
    assert len(bounds) == 1
    assert bounds[0].rhs_bits == pytest.approx(math.log2(101.0), abs=1e-9)


def test_outer_bound_rates_two_cell_formula():
    # one user per cell, symmetric levels
    p = 100.0
    direct, cross = 1.0, 0.25
    powers = {}
    for k in (1, 2):
        powers[(User(k, 1), k)] = p**direct
        powers[(User(k, 1), 3 - k)] = p**cross
    fs = FiniteSnrSpec(p, powers)
    bounds = outer_bound_rates(fs)
    cyclic = [b for b in bounds if b.kind == "cyclic"]
    assert len(cyclic) == 1
    expected = 2 * math.log2(1 + 2 * p ** (direct - cross))
    assert cyclic[0].rhs_bits == pytest.approx(expected, abs=1e-9)


def test_outer_bound_rates_requires_conditions(pimac_nonconvex):
    fs = finite_snr_from_network(pimac_nonconvex, 100.0)
    with pytest.raises(ConditionsNotMetError):
        outer_bound_rates(fs)


def test_outer_bound_rates_requires_links_above_noise():
    fs = FiniteSnrSpec(100.0, {(User(1, 1), 1): 1e-4})
    with pytest.raises(NetworkSpecError, match="noise floor"):
        outer_bound_rates(fs)


def one_link_block(gain, budget):
    """A network document whose finite-SNR block has one link."""
    return {
        "finite_snr": {
            "nominal_power": 100.0,
            "gains": [{"tx_cell": 1, "tx_slot": 1, "rx_cell": 1, "value": gain}],
            "tx_powers": [{"cell": 1, "slot": 1, "value": budget}],
        }
    }


def test_noise_floor_allows_only_the_rounding_of_the_link_power():
    # A unit gain, as the cosine and sine of one angle, whose squared
    # magnitude rounds below 1, passes; a link power of 1 - 1e-13 does not.
    unit = complex(0.5480426514161516, 0.8364503883846037)
    assert abs(unit) ** 2 < 1.0
    fs = finite_snr_from_document(one_link_block([unit.real, unit.imag], 1.0))
    assert len(outer_bound_rates(fs)) == 1
    fs = finite_snr_from_document(one_link_block(1.0, 1 - 1e-13))
    with pytest.raises(NetworkSpecError, match="noise floor"):
        outer_bound_rates(fs)


def test_achievable_rates_single_user_full_power():
    fs = single_link_fs(100.0, 1.0)
    order = DecodingOrder(((1,),))
    alloc = PowerAllocation({User(1, 1): Fraction(0)}, frozenset())
    rates = achievable_rates(fs, order, alloc)
    assert rates[User(1, 1)] == pytest.approx(math.log2(101.0), abs=1e-9)


def test_achievable_rates_off_user_excluded(pimac_optimal):
    fs = finite_snr_from_network(pimac_optimal, 100.0)
    order = DecodingOrder(((1,), (1,)))  # cell-1 slot 2 inactive
    alloc = PowerAllocation(
        {User(1, 1): Fraction(0), User(2, 1): Fraction(0)}, frozenset({User(1, 2)})
    )
    rates = achievable_rates(fs, order, alloc)
    assert rates[User(1, 2)] == 0.0
    p = 100.0
    denom = 1 + p ** float(pimac_optimal.alpha(User(1, 1), 2))
    assert rates[User(2, 1)] == pytest.approx(
        math.log2(1 + p**1.0 / denom), abs=1e-9
    )


def per_use_achievable_rates(fs, order, alloc):
    """``achievable_rates`` as it was, computing a power at every use; the oracle."""
    net, fs = fs.levels
    order.validate(net, order.active_users())
    p = fs.nominal_power

    def power(user: User, rx: int) -> float:
        return p ** float(alloc[user]) * fs.clipped_link_power(user, rx)

    active = [u for u in order.active_users() if u not in alloc.off]
    if set(active) != set(order.active_users()):
        raise NetworkSpecError("decoding order lists a user that the allocation turns off")
    rates: dict[User, float] = {u: 0.0 for u in net.users}
    for k in range(1, net.cells + 1):
        slots = order.slots(k)
        for pos in range(1, len(slots) + 1):
            u = order.user_at(k, pos)
            noise = 1.0
            for ppos in range(1, pos):
                noise += power(order.user_at(k, ppos), k)
            for v in active:
                if v.cell != k:
                    noise += power(v, k)
            rates[u] = math.log2(1 + power(u, k) / noise)
    return rates


def test_achievable_rates_compute_each_power_once(monkeypatch):
    calls = Counter()
    clipped = FiniteSnrSpec.clipped_link_power

    def counting(self, user, rx_cell):
        calls[user, rx_cell] += 1
        return clipped(self, user, rx_cell)

    rng = random.Random(62)
    for _ in range(300):
        net = random_network(rng, max_cells=4, max_users=3)
        fs = finite_snr_from_network(net, rng.choice((3.0, 1e2, 1e4)))
        active = frozenset(u for u in net.users if rng.random() < 0.8)
        order = random_order(rng, net, active)
        grid = random_grid_allocation(rng, net)
        alloc = PowerAllocation({u: grid[u] for u in active}, frozenset(net.users) - active)
        want = per_use_achievable_rates(fs, order, alloc)
        with monkeypatch.context() as m:
            m.setattr(FiniteSnrSpec, "clipped_link_power", counting)
            calls.clear()
            got = achievable_rates(fs, order, alloc)
        assert got == want  # bit for bit: same powers, same summation order
        assert max(calls.values(), default=1) == 1
        assert set(calls) <= {(u, k) for u in active for k in range(1, net.cells + 1)}


def test_gap_report_nonnegative_and_shrinking(pimac_optimal):
    ratios = []
    for p in (1e2, 1e4, 1e6):
        fs = finite_snr_from_network(pimac_optimal, p)
        rep = gap_report(fs)
        assert all(bg.gap_bits >= -1e-9 for bg in rep.per_bound)
        ratios.append(rep.max_gap_bits / math.log2(p))
    assert ratios[0] > ratios[1] > ratios[2]


def test_gap_report_uses_every_corner():
    # 308 corners; the lexicographically first 16 gave 17.68 bits, all give 17.11.
    net = random_optimality_network(random.Random(9), cells=3, users_per_cell=[2, 2, 2])
    fs = finite_snr_from_network(net, 1e4)
    order = DecodingOrder.identity(net)
    corners = vertices(polyhedral_region(net, order))
    assert len(corners) > 16
    corner_rates = [
        achievable_rates(
            fs, order, feasible_by_negative_cycle(build_potential_graph(net, order, None, d)).allocation
        )
        for d in corners
    ]
    expected = max(
        b.rhs_bits - max(sum(r[u] for u in b.users) for r in corner_rates)
        for b in outer_bound_rates(fs)
    )
    rep = gap_report(fs)
    assert rep.corners_used == len(corners)
    assert rep.max_gap_bits == pytest.approx(expected, abs=RATE_TOL_BITS)
    # Each corner gets the allocation of the Fraction pass, so the best
    # achieved sums agree exactly.
    for bg in rep.per_bound:
        assert bg.achieved_sum == max(sum(r[u] for u in bg.bound.users) for r in corner_rates)


def test_gap_report_checks_its_order_once(monkeypatch):
    # The scope check runs a fixed number of times per report, not once per
    # corner: 12 corners on the example file, 308 on the seed-9 network.
    from tin_gdof import model

    calls = []
    original = model.DecodingOrder.validate

    def counting(self, net, s=None):
        calls.append(s)
        return original(self, net, s)

    monkeypatch.setattr(model.DecodingOrder, "validate", counting)
    net = random_optimality_network(random.Random(9), cells=3, users_per_cell=[2, 2, 2])
    counts = []
    example = Path(__file__).resolve().parent.parent / "docs" / "example-network.json"
    for fs in (load_finite_snr(example), finite_snr_from_network(net, 1e4)):
        calls.clear()
        counts.append((gap_report(fs).corners_used, len(calls)))
    (small, small_checks), (large, large_checks) = counts
    assert (small, large) == (12, 308)
    assert small_checks == large_checks <= 2


def test_achievability_sweep_small():
    rng = random.Random(35)
    for _ in range(60):
        net = random_network(rng)
        order = random_order(rng, net)
        alloc = random_grid_allocation(rng, net)
        d = GdofTuple(achievable_gdof(net, order, alloc))
        res = general_membership(net, d)
        assert res.member
        w = res.witness
        ceil = achievable_gdof(net, w.order, w.allocation)
        assert all(ceil[u] >= d[u] for u in net.users)


def test_convexity_inclusion_small():
    rng = random.Random(36)
    for _ in range(5):
        net = random_convexity_network(rng)
        full = polyhedral_region(net, DecodingOrder.identity(net))
        for s_bits in range(2 ** len(net.users)):
            s = frozenset(
                u for i, u in enumerate(net.users) if s_bits >> i & 1
            )
            for order in enumerate_orders(net, s):
                assert region_includes(full, polyhedral_region(net, order, s))


def test_convexity_inclusion_by_vertices_small():
    # same statement, decided through explicit vertex enumeration
    rng = random.Random(38)
    for _ in range(3):
        net = random_convexity_network(rng, max_cells=2)
        full = polyhedral_region(net, DecodingOrder.identity(net))
        for s_bits in range(2 ** len(net.users)):
            s = frozenset(u for i, u in enumerate(net.users) if s_bits >> i & 1)
            for order in enumerate_orders(net, s):
                inner = polyhedral_region(net, order, s)
                for v in vertices(inner):
                    assert membership(full, v).member


def test_zero_interference_cyclic_bounds_split():
    # without cross links, each multi-cell rate bound equals the sum of its
    # per-cell bounds plus bounded additive constants
    net = pimac("0.5", "1.0", "0.7", "0", "0", "0")
    fs = finite_snr_from_network(net, 100.0)
    bounds = outer_bound_rates(fs)
    cell = {(b.users): b.rhs_bits for b in bounds if b.kind == "cell"}
    u11, u12, u21 = User(1, 1), User(1, 2), User(2, 1)
    for b in bounds:
        if b.kind != "cyclic":
            continue
        cell1_users = frozenset(u for u in b.users if u.cell == 1)
        cell2_users = frozenset(u for u in b.users if u.cell == 2)
        split = cell[cell1_users] + cell[cell2_users]
        l1, l2 = len(cell1_users), len(cell2_users)
        const = sum(
            (l - 1) * math.log2(l) + math.log2((l_next + l + 1) / l)
            for l, l_next in ((l1, l2), (l2, l1))
        )
        assert split - 1e-9 <= b.rhs_bits <= split + const + 1e-9


def test_zero_interference_gap_within_mac_slack():
    # level-zero cross links still sit exactly at the noise floor, so each
    # other-cell user can cost up to one unit of noise power on top of the
    # single-cell decoding slack
    net = pimac("0.5", "1.0", "0.7", "0", "0", "0")
    fs = finite_snr_from_network(net, 100.0)
    rep = gap_report(fs)
    for bg in rep.per_bound:
        if bg.bound.kind != "cell":
            continue
        depth = len(bg.bound.users)
        cell = next(iter(bg.bound.users)).cell
        n_other = sum(1 for u in net.users if u.cell != cell)
        slack = (
            math.log2(depth + 1)
            + (depth - 1) * math.log2(depth)
            + math.log2(1 + n_other)
        )
        assert -1e-9 <= bg.gap_bits <= slack + 1e-9


def test_achievable_gdof_counts_in_cell_and_other_cell_noise():
    # Full power, identity order.  User (1,2) is decoded first and sees the
    # in-cell signal of (1,1) at 1 above the other-cell 1/2; users (1,1) and
    # (2,1) see only other-cell signals.  Each noise group sets some penalty:
    # without the in-cell terms (1,2) would get 3/2, without the other-cell
    # terms (1,1) and (2,1) would get 1 and 2.
    net = NetworkSpec.from_alpha(
        2,
        [2, 1],
        {
            (User(1, 1), 1): Fraction(1),
            (User(1, 1), 2): Fraction(1, 4),
            (User(1, 2), 1): Fraction(2),
            (User(1, 2), 2): Fraction(1, 2),
            (User(2, 1), 2): Fraction(2),
            (User(2, 1), 1): Fraction(1, 2),
        },
    )
    alloc = PowerAllocation({u: Fraction(0) for u in net.users}, frozenset())
    ceil = achievable_gdof(net, DecodingOrder.identity(net), alloc)
    assert ceil == {
        User(1, 1): Fraction(1, 2),
        User(1, 2): Fraction(1),
        User(2, 1): Fraction(3, 2),
    }


def test_rates_converge_to_gdof_ceiling():
    # per-user rates approach the exact GDoF evaluator times log2(P).  The
    # user at decode position pos of cell k treats n_u = (pos - 1) in-cell
    # signals plus every active other-cell signal as noise, each received at
    # an exponent at most the penalty pen >= 0, so the noise (floor included)
    # lies in [P^pen, (1 + n_u) P^pen] and
    #   ceil * log2 P - log2(1 + n_u) <= rate <= ceil * log2 P + 1;
    # a zero ceiling still carries up to one bit (SINR up to 1).
    rng = random.Random(39)
    p = 1e9
    for _ in range(10):
        net = random_network(rng, max_cells=2)
        order = random_order(rng, net)
        alloc = random_grid_allocation(rng, net)
        fs = finite_snr_from_network(net, p)
        rates = achievable_rates(fs, order, alloc)
        ceil = achievable_gdof(net, order, alloc)
        active = order.active_users()
        assert active == set(net.users)
        for k in range(1, net.cells + 1):
            n_other = sum(1 for v in active if v.cell != k)
            for pos in range(1, len(order.slots(k)) + 1):
                u = order.user_at(k, pos)
                n_u = pos - 1 + n_other
                limit = float(ceil[u]) * math.log2(p)
                assert rates[u] >= limit - math.log2(1 + n_u) - RATE_TOL_BITS
                assert rates[u] <= limit + 1 + RATE_TOL_BITS


def _rate_bound_excess_interval(bound):
    """P-independent range of ``rhs_bits - rhs * log2(P)`` for a 2-cell bound.

    From the ``outer_bound_rates`` formulas with S >= 1 and S / C >= 1: a cell
    bound at depth l exceeds its limit by [log2 l, log2(l + 1)]; a cyclic bound
    by the sum over its cells of (l - 1) log2 l + [log2(l_next + l),
    log2(l_next + l + 1)], where with two cells l_next is the other cell's depth.
    """
    depths = list(Counter(u.cell for u in bound.users).values())
    if bound.kind == "cell":
        (l,) = depths
        return math.log2(l), math.log2(l + 1)
    l1, l2 = depths
    base = sum((l - 1) * math.log2(l) for l in depths)
    return base + 2 * math.log2(l1 + l2), base + 2 * math.log2(l1 + l2 + 1)


def test_rate_bounds_converge_to_gdof_outer_bound(pimac_optimal):
    # every rate bound sits above its GDoF limit by at least its documented
    # constant, and every exact bound is attained within its upper constant
    p = 1e9
    fs = finite_snr_from_network(pimac_optimal, p)
    bounds = outer_bound_rates(fs)
    outer = gdof_outer_bound(pimac_optimal)
    exact = {}
    for q in outer.inequalities:
        exact[q.users] = min(exact.get(q.users, q.rhs), q.rhs)
    seen = set()
    for b in bounds:
        lo, hi = _rate_bound_excess_interval(b)
        excess = b.rhs_bits - float(exact[b.users]) * math.log2(p)
        assert excess >= lo - RATE_TOL_BITS
        if excess <= hi + RATE_TOL_BITS:
            seen.add(b.users)
    assert seen == set(exact)  # every exact bound is attained by some rate bound


def test_outer_bound_equality_under_conditions():
    rng = random.Random(37)
    for _ in range(10):
        net = random_optimality_network(rng)
        region = polyhedral_region(net, DecodingOrder.identity(net))
        outer = gdof_outer_bound(net)
        for _ in range(10):
            weights = {u: Fraction(rng.randint(0, 8), 4) for u in net.users}
            assert max_weighted_gdof(region, weights).value == max_weighted_gdof(
                outer, weights
            ).value


def test_levels_are_derived_once_per_description(monkeypatch):
    from tin_gdof import model

    calls = []
    original = model.strength_levels

    def counting(fs):
        calls.append(fs)
        return original(fs)

    monkeypatch.setattr(model, "strength_levels", counting)
    net = random_optimality_network(random.Random(9), cells=3, users_per_cell=[2, 2, 2])
    exact = finite_snr_from_network(net, 1e4)
    rep = gap_report(exact)
    outer_bound_rates(exact)
    assert calls == []  # a description built from a network keeps it

    # The same link powers without the network: one derivation per call, not one
    # per corner, and the same report.
    assert gap_report(FiniteSnrSpec(exact.nominal_power, exact.link_powers)) == rep
    assert len(calls) == 1
    assert rep.corners_used == 308
    assert rep.max_gap_bits == pytest.approx(17.1125, abs=1e-4)
    outer_bound_rates(FiniteSnrSpec(exact.nominal_power, exact.link_powers))
    assert len(calls) == 2


def test_synthesized_description_rejects_non_finite_power(pimac_optimal):
    for p in (math.nan, math.inf, 1.0):
        with pytest.raises(NetworkSpecError, match="nominal power"):
            finite_snr_from_network(pimac_optimal, p)
