"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every criterion is exact (rational arithmetic) unless a bits
tolerance is stated; each also asserts its wall-clock budget.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

from conftest import pimac
from tin_gdof.analysis import (
    achievable_gdof,
    achievable_rates,
    gdof_outer_bound,
    general_membership,
    max_weighted_gdof,
    outer_bound_rates,
    region_includes,
)
from tin_gdof.cellsim import ScenarioParams, estimate_probabilities
from tin_gdof.conditions import evaluate_conditions
from tin_gdof.model import DecodingOrder, User, enumerate_orders
from tin_gdof.potential import (
    all_circuits_region_oracle,
    build_potential_graph,
    feasible_by_negative_cycle,
    recover_power_allocation,
)
from tin_gdof.regions import (
    GdofTuple,
    enumerate_cyclic_sequences,
    membership,
    polyhedral_region,
)
from tin_gdof.sampling import (
    finite_snr_from_network,
    random_convexity_network,
    random_grid_allocation,
    random_gdof_tuple,
    random_network,
    random_optimality_network,
    random_order,
)


@contextlib.contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_01_cyclic_sequence_golden():
    with criterion("01 cyclic-sequence golden", 1.0):
        # warm call, then timed call against the 1 ms budget
        list(enumerate_cyclic_sequences({1, 2, 3}))
        start = time.perf_counter()
        got = [seq.cells for seq in enumerate_cyclic_sequences({1, 2, 3})]
        elapsed = time.perf_counter() - start
        assert got == [
            (1,),
            (2,),
            (3,),
            (1, 2),
            (1, 3),
            (2, 3),
            (1, 2, 3),
            (1, 3, 2),
        ]
        assert elapsed < 1e-3


def test_02_region_golden_examples():
    with criterion("02 region golden examples", 1.0):
        # two cells, two users each, ascending order: exactly eight bounds
        a11 = (Fraction(4, 5), Fraction(11, 10))
        a22 = (Fraction(9, 10), Fraction(7, 5))
        a12 = (Fraction(1, 5), Fraction(3, 10))
        a21 = (Fraction(1, 10), Fraction(1, 4))
        alpha = {}
        for l in (1, 2):
            alpha[(User(1, l), 1)] = a11[l - 1]
            alpha[(User(1, l), 2)] = a12[l - 1]
            alpha[(User(2, l), 2)] = a22[l - 1]
            alpha[(User(2, l), 1)] = a21[l - 1]
        from tin_gdof.model import NetworkSpec

        net22 = NetworkSpec.from_alpha(2, [2, 2], alpha)
        reg = polyhedral_region(net22, DecodingOrder.identity(net22))
        u = {(k, l): User(k, l) for k in (1, 2) for l in (1, 2)}
        expected = {
            (frozenset([u[1, 1]]), a11[0]),
            (frozenset([u[1, 1], u[1, 2]]), a11[1]),
            (frozenset([u[2, 1]]), a22[0]),
            (frozenset([u[2, 1], u[2, 2]]), a22[1]),
            (frozenset([u[1, 1], u[2, 1]]), a11[0] - a12[0] + a22[0] - a21[0]),
            (frozenset([u[1, 1], u[1, 2], u[2, 1]]), a11[1] - a12[1] + a22[0] - a21[0]),
            (frozenset([u[1, 1], u[2, 1], u[2, 2]]), a11[0] - a12[0] + a22[1] - a21[1]),
            (
                frozenset([u[1, 1], u[1, 2], u[2, 1], u[2, 2]]),
                a11[1] - a12[1] + a22[1] - a21[1],
            ),
        }
        assert {(q.users, q.rhs) for q in reg.inequalities} == expected

        # running 2-cell 3-user example: both orders, five bounds each
        net = pimac("1.0", "1.2", "1.0", "0.1", "0.5", "0.2")
        u11, u12, u21 = User(1, 1), User(1, 2), User(2, 1)
        b11 = (Fraction(1), Fraction(6, 5))
        b22 = Fraction(1)
        b12 = (Fraction(1, 10), Fraction(1, 2))
        b21 = Fraction(1, 5)
        rid = polyhedral_region(net, DecodingOrder.identity(net))
        assert {(q.users, q.rhs) for q in rid.inequalities} == {
            (frozenset([u11]), b11[0]),
            (frozenset([u11, u12]), b11[1]),
            (frozenset([u21]), b22),
            (frozenset([u11, u21]), b11[0] - b12[0] + b22 - b21),
            (frozenset([u11, u12, u21]), b11[1] - b12[1] + b22 - b21),
        }
        rbar = polyhedral_region(net, DecodingOrder(((2, 1), (1,))))
        assert {(q.users, q.rhs) for q in rbar.inequalities} == {
            (frozenset([u12]), b11[1]),
            (frozenset([u11, u12]), b11[0]),
            (frozenset([u21]), b22),
            (frozenset([u12, u21]), b11[1] - b12[1] + b22 - b21),
            (frozenset([u11, u12, u21]), b11[0] - b12[0] + b22 - b21),
        }


def test_03_membership_and_recovery():
    with criterion("03 membership and recovery", 1.0):
        net = pimac("1.0", "1.2", "1.0", "0.1", "0.5", "0.2")
        d = GdofTuple.from_values(net, ["0.2", "0.5", "1.0"])
        rid = polyhedral_region(net, DecodingOrder.identity(net))
        res = membership(rid, d)
        assert not res.member
        assert res.violated.users == frozenset(net.users)
        assert res.violated.rhs == Fraction(3, 2)
        assert res.violated.evaluate(d) == Fraction(17, 10)

        idbar = DecodingOrder(((2, 1), (1,)))
        rbar = polyhedral_region(net, idbar)
        assert membership(rbar, d).member
        g = build_potential_graph(net, idbar, None, d)
        assert feasible_by_negative_cycle(g).feasible
        alloc = recover_power_allocation(g)
        assert all(r <= 0 for r in alloc.exponents.values())
        ceil = achievable_gdof(net, idbar, alloc)
        assert all(ceil[u] >= d[u] for u in net.users)


def test_04_negative_cycle_equivalence():
    with criterion("04 negative-cycle equivalence (10^4)", 60.0):
        rng = random.Random(104)
        for _ in range(10_000):
            net = random_network(rng, max_cells=3, max_users=2)
            order = random_order(rng, net)
            d = random_gdof_tuple(rng, net)
            by_ineq = membership(polyhedral_region(net, order), d).member
            g = build_potential_graph(net, order, None, d)
            assert feasible_by_negative_cycle(g).feasible == by_ineq


def test_05_all_circuits_equivalence():
    with criterion("05 all-circuits equivalence (10^3)", 300.0):
        rng = random.Random(105)
        for _ in range(1_000):
            net = random_network(rng, max_cells=3, max_users=2)
            order = random_order(rng, net)
            d = random_gdof_tuple(rng, net)
            by_ineq = membership(polyhedral_region(net, order), d).member
            assert all_circuits_region_oracle(net, order, d) == by_ineq


def test_06_achievability_sweep():
    with criterion("06 achievability sweep (10^4)", 120.0):
        rng = random.Random(106)
        for _ in range(10_000):
            net = random_network(rng, max_cells=3, max_users=2)
            order = random_order(rng, net)
            alloc = random_grid_allocation(rng, net, Fraction(1, 20), -3)
            d = GdofTuple(achievable_gdof(net, order, alloc))
            res = general_membership(net, d)
            assert res.member
            w = res.witness
            ceil = achievable_gdof(net, w.order, w.allocation)
            assert all(ceil[u] >= d[u] for u in net.users)


def test_07_outer_bound_lp_equality():
    with criterion("07 outer-bound LP equality (100x100)", 120.0):
        rng = random.Random(107)
        for _ in range(100):
            net = random_optimality_network(rng, max_cells=3, max_users=2)
            region = polyhedral_region(net, DecodingOrder.identity(net))
            outer = gdof_outer_bound(net)
            for _ in range(100):
                weights = {u: Fraction(rng.randint(0, 12), 4) for u in net.users}
                assert (
                    max_weighted_gdof(region, weights).value
                    == max_weighted_gdof(outer, weights).value
                )


def test_08_convexity_inclusion_suite():
    with criterion("08 convexity inclusion suite (50)", 300.0):
        rng = random.Random(108)
        for _ in range(50):
            net = random_convexity_network(rng, max_cells=3, max_users=2)
            full = polyhedral_region(net, DecodingOrder.identity(net))
            users = net.users
            for s_bits in range(2 ** len(users)):
                s = frozenset(u for i, u in enumerate(users) if s_bits >> i & 1)
                for order in enumerate_orders(net, s):
                    assert region_includes(full, polyhedral_region(net, order, s))


def test_09_finite_snr_consistency():
    with criterion("09 finite-SNR consistency (20x3)", 120.0):
        rng = random.Random(109)
        for _ in range(20):
            net = random_optimality_network(
                rng, cells=2, users_per_cell=[rng.randint(1, 2), rng.randint(1, 2)]
            )
            order = DecodingOrder.identity(net)
            region = polyhedral_region(net, order)
            from tin_gdof.analysis import vertices as region_vertices

            corners = region_vertices(region)
            ratios = []
            for p in (1e2, 1e4, 1e6):
                fs = finite_snr_from_network(net, p)
                bounds = outer_bound_rates(fs)
                per_corner = []
                for d in corners:
                    g = build_potential_graph(net, order, None, d)
                    alloc = recover_power_allocation(g)
                    per_corner.append(achievable_rates(fs, order, alloc))
                max_gap = 0.0
                for bound in bounds:
                    achieved = max(
                        (sum(r[u] for u in bound.users) for r in per_corner),
                        default=0.0,
                    )
                    gap = bound.rhs_bits - achieved
                    assert gap >= -1e-9
                    max_gap = max(max_gap, gap)
                ratios.append(max_gap / math.log2(p))
            assert ratios[0] > ratios[1] > ratios[2]


def test_10_cellular_reproduction():
    with criterion("10 cellular reproduction", 60.0):
        trials = 1_000
        sweep_radii = [80.0, 120.0, 160.0, 200.0, 243.0]
        for geometry, cells in (("linear", 2), ("circular", 4)):
            curves = {}
            for users in (1, 2, 3):
                points = []
                for r in sweep_radii:
                    p = ScenarioParams(
                        geometry=geometry,
                        site_radius_m=r,
                        users_per_cell=users,
                        trials=trials,
                        seed=110,
                        cells=cells,
                    )
                    points.append(estimate_probabilities(p))
                curves[users] = points
                edge = points[-1]
                assert edge.p_convexity >= 0.99
                assert edge.p_optimality >= 0.99
                # nondecreasing in radius within the confidence intervals
                for a, b in zip(points, points[1:]):
                    assert (
                        b.p_convexity + b.ci95_convexity + a.ci95_convexity
                        >= a.p_convexity
                    )
                    assert (
                        b.p_optimality + b.ci95_optimality + a.ci95_optimality
                        >= a.p_optimality
                    )
            # nonincreasing in the user count within the confidence intervals
            for small, large in ((1, 2), (2, 3)):
                for pa, pb in zip(curves[small], curves[large]):
                    assert (
                        pb.p_convexity
                        <= pa.p_convexity + pa.ci95_convexity + pb.ci95_convexity
                    )
                    assert (
                        pb.p_optimality
                        <= pa.p_optimality + pa.ci95_optimality + pb.ci95_optimality
                    )


def test_11_homogeneity():
    with criterion("11 homogeneity (10^3)", 30.0):
        rng = random.Random(111)
        for _ in range(1_000):
            net = random_network(rng, max_cells=3, max_users=2)
            c = Fraction(rng.randint(1, 60), 20)
            scaled = net.scaled(c)
            before = evaluate_conditions(net)
            after = evaluate_conditions(scaled)
            assert before.convexity_holds == after.convexity_holds
            assert before.optimality_holds == after.optimality_holds
            order = random_order(rng, net)
            d = random_gdof_tuple(rng, net)
            assert (
                membership(polyhedral_region(net, order), d).member
                == membership(polyhedral_region(scaled, order), d.scaled(c)).member
            )
