import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pimac
from tin_gdof.conditions import (
    ConditionKind,
    PimacRegimeLabel,
    classify_pimac,
    evaluate_conditions,
    outer_bound_user_partition,
)
from tin_gdof import conditions
from tin_gdof.errors import TinGdofError, TopologyError
from tin_gdof.model import NetworkSpec, User
from tin_gdof.sampling import (
    random_convexity_network,
    random_network,
    random_optimality_network,
)


def test_single_cell_vacuously_satisfies_everything():
    net = NetworkSpec.from_alpha(
        1, [2], {(User(1, 1), 1): Fraction(1), (User(1, 2), 1): Fraction(2)}
    )
    report = evaluate_conditions(net)
    assert report.convexity_holds and report.optimality_holds
    assert report.violations == ()


def test_optimal_instance_satisfies_both(pimac_optimal):
    report = evaluate_conditions(pimac_optimal)
    assert report.convexity_holds
    assert report.optimality_holds


def test_nonconvex_instance_fails_mac_condition(pimac_nonconvex):
    report = evaluate_conditions(pimac_nonconvex)
    assert not report.convexity_holds
    kinds = {v.condition for v in report.violations}
    assert ConditionKind.MAC_ORDER_CONVEXITY in kinds
    v = next(
        v for v in report.violations if v.condition is ConditionKind.MAC_ORDER_CONVEXITY
    )
    # stronger user's level 1.2 vs weaker's 1.0 plus the cross gap 0.4
    assert v.lhs == Fraction(6, 5)
    assert v.rhs == Fraction(7, 5)
    assert v.indices == (1, 2, None, 2, 1)


def test_convex_only_instance(pimac_convex_only):
    report = evaluate_conditions(pimac_convex_only)
    assert report.convexity_holds
    assert not report.optimality_holds


def test_zero_cross_levels_trivially_optimal():
    net = pimac("0.5", "1.0", "0.7", "0", "0", "0")
    report = evaluate_conditions(net)
    assert report.optimality_holds


def test_partition_examples(pimac_optimal):
    # zero interference: the attenuated top user clears every weaker direct
    net0 = pimac("0.5", "1.0", "0.7", "0", "0", "0")
    part = outer_bound_user_partition(net0, 1, 2, 2)
    assert part.double_primed == {1}
    assert part.primed == {2}
    # depth one: nothing below the top user
    part = outer_bound_user_partition(net0, 1, 2, 1)
    assert part.double_primed == frozenset()
    assert part.primed == {1}
    # 1.5 - 0.4 = 1.1 clears the weaker direct 1.0
    part = outer_bound_user_partition(pimac_optimal, 1, 2, 2)
    assert part.double_primed == {1}
    assert part.primed == {2}
    # 1.2 - 0.5 = 0.7 does not clear 1.0
    weak = pimac("1.0", "1.2", "1.0", "0.1", "0.5", "0.2")
    part = outer_bound_user_partition(weak, 1, 2, 2)
    assert part.double_primed == frozenset()
    assert part.primed == {1, 2}
    with pytest.raises(TopologyError):
        outer_bound_user_partition(pimac_optimal, 1, 1, 2)


def test_classify_pimac_regimes(pimac_optimal, pimac_convex_only, pimac_nonconvex):
    regime = classify_pimac(pimac_optimal)
    assert regime.label is PimacRegimeLabel.A_O_PRIME
    assert regime.box_bounds == (Fraction(4, 5), Fraction(4, 5))

    assert classify_pimac(pimac_convex_only).label is PimacRegimeLabel.A_P_MINUS_A_O

    # second optimality branch without the first: gap 0.5, cross (0.7, 0.6)
    second = pimac("1.0", "1.5", "1.0", "0.7", "0.6", "0.2")
    assert classify_pimac(second).label is PimacRegimeLabel.A_O_DOUBLEPRIME_ONLY

    assert classify_pimac(pimac_nonconvex).label is PimacRegimeLabel.A_MINUS_A_P

    outside = pimac("1.0", "1.5", "1.0", "0.9", "0.4", "0.2")
    assert classify_pimac(outside).label is PimacRegimeLabel.OUTSIDE_A


def test_classify_pimac_wrong_topology():
    net = NetworkSpec.from_alpha(
        1, [2], {(User(1, 1), 1): Fraction(1), (User(1, 2), 1): Fraction(2)}
    )
    with pytest.raises(TopologyError):
        classify_pimac(net)


def test_classifier_labels_consistent_with_condition_checks():
    rng = random.Random(21)
    for _ in range(300):
        net = random_network(rng, cells=2, users_per_cell=[2, 1])
        regime = classify_pimac(net)
        report = evaluate_conditions(net)
        if regime.label in (
            PimacRegimeLabel.A_O_PRIME,
            PimacRegimeLabel.A_O_DOUBLEPRIME_ONLY,
        ):
            assert report.optimality_holds
        elif regime.label is PimacRegimeLabel.A_P_MINUS_A_O:
            assert report.convexity_holds and not report.optimality_holds
        elif regime.label is PimacRegimeLabel.A_MINUS_A_P:
            assert not report.convexity_holds


def test_optimality_implies_convexity_randomized():
    rng = random.Random(22)
    for _ in range(10_000):
        report = evaluate_conditions(random_network(rng))
        assert report.convexity_holds or not report.optimality_holds


def test_optimality_without_convexity_raises_even_without_asserts(monkeypatch, pimac_optimal):
    # A cross-cell check that fails only the convexity pair breaks the
    # invariant; it must raise a package error, which ``python -O`` keeps.
    fake = conditions.Violation(
        ConditionKind.CROSS_CELL_CONVEXITY, (1, 2, 2, 1, 1), Fraction(0), Fraction(1)
    )
    monkeypatch.setattr(
        conditions,
        "_cross_cell_violations",
        lambda net, optimality: [] if optimality else [fake],
    )
    with pytest.raises(TinGdofError):
        evaluate_conditions(pimac_optimal)


def test_constructive_samplers_meet_their_conditions():
    rng = random.Random(23)
    for _ in range(50):
        assert evaluate_conditions(random_convexity_network(rng)).convexity_holds
        assert evaluate_conditions(random_optimality_network(rng)).optimality_holds


@given(st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_condition_booleans_scale_invariant(c_num):
    c = Fraction(c_num, 20)
    rng = random.Random(c_num)
    net = random_network(rng)
    before = evaluate_conditions(net)
    after = evaluate_conditions(net.scaled(c))
    assert before.convexity_holds == after.convexity_holds
    assert before.optimality_holds == after.optimality_holds
