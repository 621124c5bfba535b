import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pimac
from tin_gdof.errors import NetworkSpecError
from tin_gdof.model import DecodingOrder, NetworkSpec, User
from tin_gdof.regions import (
    CyclicSequence,
    GdofTuple,
    bound_indices,
    bound_rhs,
    enumerate_cyclic_sequences,
    membership,
    polyhedral_region,
    set_function_f,
)
from tin_gdof.sampling import random_network


def brute_force_cyclic(cells, min_len):
    """Independent enumeration: all distinct-element tuples modulo rotation."""
    out = set()
    for m in range(min_len, len(cells) + 1):
        for perm in itertools.permutations(sorted(cells), m):
            k = perm.index(min(perm))
            out.add(perm[k:] + perm[:k])
    return out


def test_cyclic_sequences_three_cells_golden():
    got = [seq.cells for seq in enumerate_cyclic_sequences({1, 2, 3})]
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


def test_cyclic_sequences_singleton():
    assert [seq.cells for seq in enumerate_cyclic_sequences({1})] == [(1,)]


@pytest.mark.parametrize("n,min_len", [(3, 1), (4, 2), (4, 1), (5, 2)])
def test_cyclic_sequences_match_brute_force(n, min_len):
    cells = set(range(1, n + 1))
    got = [seq.cells for seq in enumerate_cyclic_sequences(cells, min_len)]
    assert len(got) == len(set(got))  # each exactly once
    assert set(got) == brute_force_cyclic(cells, min_len)


def test_cyclic_sequences_count_four_cells_min_two():
    assert sum(1 for _ in enumerate_cyclic_sequences({1, 2, 3, 4}, 2)) == 20


def test_cyclic_sequence_rotation_identity():
    assert CyclicSequence((2, 3, 1)) == CyclicSequence((1, 2, 3))
    assert CyclicSequence((1, 3, 2)) != CyclicSequence((1, 2, 3))
    with pytest.raises(ValueError):
        CyclicSequence((1, 1))


def two_cell_two_user(a11, a22, a12, a21):
    """K=2 with two users per cell; a12/a21 are per-slot cross levels."""
    alpha = {}
    for l in (1, 2):
        alpha[(User(1, l), 1)] = Fraction(a11[l - 1])
        alpha[(User(1, l), 2)] = Fraction(a12[l - 1])
        alpha[(User(2, l), 2)] = Fraction(a22[l - 1])
        alpha[(User(2, l), 1)] = Fraction(a21[l - 1])
    return NetworkSpec.from_alpha(2, [2, 2], alpha)


def test_two_cell_two_user_region_golden():
    a11 = (Fraction(4, 5), Fraction(11, 10))
    a22 = (Fraction(9, 10), Fraction(7, 5))
    a12 = (Fraction(1, 5), Fraction(3, 10))
    a21 = (Fraction(1, 10), Fraction(1, 4))
    net = two_cell_two_user(a11, a22, a12, a21)
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    u = {(k, l): User(k, l) for k in (1, 2) for l in (1, 2)}
    expected = {
        (frozenset([u[1, 1]]), a11[0]),
        (frozenset([u[1, 1], u[1, 2]]), a11[1]),
        (frozenset([u[2, 1]]), a22[0]),
        (frozenset([u[2, 1], u[2, 2]]), a22[1]),
        (
            frozenset([u[1, 1], u[2, 1]]),
            a11[0] - a12[0] + a22[0] - a21[0],
        ),
        (
            frozenset([u[1, 1], u[1, 2], u[2, 1]]),
            a11[1] - a12[1] + a22[0] - a21[0],
        ),
        (
            frozenset([u[1, 1], u[2, 1], u[2, 2]]),
            a11[0] - a12[0] + a22[1] - a21[1],
        ),
        (
            frozenset([u[1, 1], u[1, 2], u[2, 1], u[2, 2]]),
            a11[1] - a12[1] + a22[1] - a21[1],
        ),
    }
    got = {(q.users, q.rhs) for q in reg.inequalities}
    assert got == expected
    assert len(reg.inequalities) == 8


def test_pimac_region_golden_both_orders(pimac_nonconvex):
    net = pimac_nonconvex
    u11, u12, u21 = User(1, 1), User(1, 2), User(2, 1)
    rid = polyhedral_region(net, DecodingOrder.identity(net))
    assert {(q.users, q.rhs) for q in rid.inequalities} == {
        (frozenset([u11]), Fraction(1)),
        (frozenset([u11, u12]), Fraction(6, 5)),
        (frozenset([u21]), Fraction(1)),
        (frozenset([u11, u21]), Fraction(1) - Fraction(1, 10) + Fraction(1) - Fraction(1, 5)),
        (
            frozenset([u11, u12, u21]),
            Fraction(6, 5) - Fraction(1, 2) + Fraction(1) - Fraction(1, 5),
        ),
    }
    rbar = polyhedral_region(net, DecodingOrder(((2, 1), (1,))))
    assert {(q.users, q.rhs) for q in rbar.inequalities} == {
        (frozenset([u12]), Fraction(6, 5)),
        (frozenset([u11, u12]), Fraction(1)),
        (frozenset([u21]), Fraction(1)),
        (frozenset([u12, u21]), Fraction(6, 5) - Fraction(1, 2) + Fraction(4, 5)),
        (frozenset([u11, u12, u21]), Fraction(1) - Fraction(1, 10) + Fraction(4, 5)),
    }


def test_single_cell_region_is_nested_prefixes():
    alpha = {(User(1, l), 1): Fraction(l, 2) for l in (1, 2, 3)}
    net = NetworkSpec.from_alpha(1, [3], alpha)
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    assert [(sorted(q.users), q.rhs) for q in reg.inequalities] == [
        ([User(1, 1)], Fraction(1, 2)),
        ([User(1, 1), User(1, 2)], Fraction(1)),
        ([User(1, 1), User(1, 2), User(1, 3)], Fraction(3, 2)),
    ]


def test_region_inequality_count_formula():
    rng = random.Random(5)
    for _ in range(20):
        net = random_network(rng)
        reg = polyhedral_region(net, DecodingOrder.identity(net))
        expected = sum(net.users_per_cell)
        for seq in enumerate_cyclic_sequences(range(1, net.cells + 1), 2):
            prod = 1
            for i in seq.cells:
                prod *= net.users_per_cell[i - 1]
            expected += prod
        assert len(reg.inequalities) == expected


def test_bound_indices_emission_order():
    # Per-cell bounds by (cell, depth), then cyclic bounds by (length, cell
    # subset, arrangement, depth vector); the CLI output lists them so.
    from tin_gdof.sampling import random_order

    rng = random.Random(9)
    for _ in range(20):
        net = random_network(rng, max_cells=4, max_users=2)
        s = frozenset(u for u in net.users if rng.random() < 0.85)
        order = random_order(rng, net, s)
        depth_of = {k: len(order.slots(k)) for k in range(1, net.cells + 1)}
        active = [k for k in sorted(depth_of) if depth_of[k]]
        cell_keys = [((k,), (l,)) for k in active for l in range(1, depth_of[k] + 1)]
        cyclic_keys = [
            (seq, depths)
            for seq in brute_force_cyclic(active, 2)
            for depths in itertools.product(*(range(1, depth_of[k] + 1) for k in seq))
        ]
        cyclic_keys.sort(key=lambda kd: (len(kd[0]), sorted(kd[0]), kd[0], kd[1]))

        indices = list(bound_indices(net, order, s))
        assert [(b.cells, b.depths) for b in indices] == cell_keys + cyclic_keys
        for b in indices:
            assert b.tops == tuple(order.user_at(k, l) for k, l in zip(b.cells, b.depths))
            assert b.users == {
                order.user_at(k, p) for k, l in zip(b.cells, b.depths) for p in range(1, l + 1)
            }
        rows = polyhedral_region(net, order, s).inequalities
        assert [(q.users, q.rhs) for q in rows] == [(b.users, bound_rhs(net, b)) for b in indices]


def test_region_inequalities_are_prefix_closed():
    rng = random.Random(6)
    for _ in range(20):
        net = random_network(rng)
        s = frozenset(u for u in net.users if rng.random() < 0.8)
        orders = [DecodingOrder.identity(net, s)]
        from tin_gdof.sampling import random_order

        orders.append(random_order(rng, net, s))
        for order in orders:
            reg = polyhedral_region(net, order, s)
            for q in reg.inequalities:
                for u in q.users:
                    seq = order.slots(u.cell)
                    pos = seq.index(u.slot)
                    for p in range(pos):
                        assert User(u.cell, seq[p]) in q.users


def test_region_emission_deterministic(pimac_nonconvex):
    order = DecodingOrder.identity(pimac_nonconvex)
    a = polyhedral_region(pimac_nonconvex, order)
    b = polyhedral_region(pimac_nonconvex, order)
    assert a.same_system(b)


def test_subnetwork_region_forces_zeros(pimac_nonconvex):
    net = pimac_nonconvex
    s = frozenset({User(1, 2), User(2, 1)})
    reg = polyhedral_region(net, DecodingOrder.identity(net, s), s)
    assert reg.forced_zero == {User(1, 1)}
    # in-cell depth indexes the active users only
    assert (frozenset([User(1, 2)]), Fraction(6, 5)) in {
        (q.users, q.rhs) for q in reg.inequalities
    }
    d = GdofTuple({User(1, 1): Fraction(1, 10), User(1, 2): 0, User(2, 1): 0})
    assert not membership(reg, d).member


def test_set_function_examples(pimac_nonconvex):
    net = pimac_nonconvex
    order = DecodingOrder.identity(net)
    assert set_function_f(net, order, set()) == 0
    assert set_function_f(net, order, {User(1, 1)}) == Fraction(1)
    assert set_function_f(net, order, {User(2, 1)}) == Fraction(1)
    full = {User(1, 1), User(1, 2), User(2, 1)}
    assert set_function_f(net, order, full) == Fraction(3, 2)
    with pytest.raises(NetworkSpecError, match="prefix"):
        set_function_f(net, order, {User(1, 2)})


def test_set_function_with_general_order_on_subnetwork(pimac_nonconvex):
    net = pimac_nonconvex
    idbar = DecodingOrder(((2, 1), (1,)))
    # prefix of length 1 in cell 1 under the reversed order is slot 2
    assert set_function_f(net, idbar, {User(1, 2)}) == Fraction(6, 5)
    assert set_function_f(net, idbar, {User(1, 2), User(2, 1)}) == Fraction(
        6, 5
    ) - Fraction(1, 2) + Fraction(1) - Fraction(1, 5)
    with pytest.raises(NetworkSpecError, match="prefix"):
        set_function_f(net, idbar, {User(1, 1)})
    # order over a subnetwork: the single active slot of cell 1 is its prefix
    s = frozenset({User(1, 1), User(2, 1)})
    sub_order = DecodingOrder(((1,), (1,)))
    sub_order.validate(net, s)
    assert set_function_f(net, sub_order, {User(1, 1)}) == Fraction(1)


def test_set_function_monotone_in_depth_for_identity():
    rng = random.Random(7)
    for _ in range(10):
        net = random_network(rng)
        order = DecodingOrder.identity(net)
        for k in range(1, net.cells + 1):
            values = [
                set_function_f(net, order, {User(k, s) for s in range(1, depth + 1)})
                for depth in range(1, net.users_per_cell[k - 1] + 1)
            ]
            assert values == sorted(values)


def test_set_function_matches_region_rhs():
    # every emitted bound's rhs is at or above the set function at its user set
    rng = random.Random(8)
    for _ in range(10):
        net = random_network(rng)
        order = DecodingOrder.identity(net)
        reg = polyhedral_region(net, order)
        best = {}
        for q in reg.inequalities:
            best[q.users] = min(best.get(q.users, q.rhs), q.rhs)
        for users, rhs in best.items():
            assert set_function_f(net, order, users) == rhs


def test_membership_zero_tuple(pimac_nonconvex):
    reg = polyhedral_region(pimac_nonconvex, DecodingOrder.identity(pimac_nonconvex))
    assert membership(reg, GdofTuple.zero(pimac_nonconvex)).member


def test_membership_pimac_examples(pimac_nonconvex):
    net = pimac_nonconvex
    d = GdofTuple.from_values(net, ["0.2", "0.5", "1.0"])
    rid = polyhedral_region(net, DecodingOrder.identity(net))
    res = membership(rid, d)
    assert not res.member
    assert res.violated.users == frozenset(net.users)
    assert res.violated.rhs == Fraction(3, 2)
    rbar = polyhedral_region(net, DecodingOrder(((2, 1), (1,))))
    assert membership(rbar, d).member


def test_membership_negative_rhs_means_empty_region():
    # cross levels so strong that a cyclic bound goes negative
    net = pimac("0.2", "0.3", "0.2", "1.0", "1.0", "1.0")
    reg = polyhedral_region(net, DecodingOrder.identity(net))
    assert any(q.rhs < 0 for q in reg.inequalities)
    assert not membership(reg, GdofTuple.zero(net)).member


@given(st.integers(1, 60), st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_membership_homogeneity(c_num, d1, d2, d3):
    c = Fraction(c_num, 20)
    net = pimac("1.0", "1.2", "1.0", "0.1", "0.5", "0.2")
    order = DecodingOrder.identity(net)
    d = GdofTuple.from_values(net, [Fraction(d1, 10), Fraction(d2, 10), Fraction(d3, 10)])
    base = membership(polyhedral_region(net, order), d).member
    scaled = membership(polyhedral_region(net.scaled(c), order), d.scaled(c)).member
    assert base == scaled
