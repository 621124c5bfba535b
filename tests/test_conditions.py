import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outer_bound_user_partition, pimac, scaled_network
from tin_gdof.cellsim import ScenarioParams, sample_network
from tin_gdof.conditions import (
    ConditionKind,
    ConditionReport,
    PimacRegimeLabel,
    Violation,
    classify_pimac,
    condition_flags,
    evaluate_conditions,
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


def _three_user_cell(cross_12):
    """Cell 1: directs 21/10, 11/5, 11/5 with cross levels 11/10, ``cross_12``,
    1/5 toward cell 2; user 2.1: direct 29/10, cross level 1/2 toward cell 1."""
    levels = {
        (User(1, 1), 1): Fraction(21, 10), (User(1, 1), 2): Fraction(11, 10),
        (User(1, 2), 1): Fraction(11, 5), (User(1, 2), 2): cross_12,
        (User(1, 3), 1): Fraction(11, 5), (User(1, 3), 2): Fraction(1, 5),
        (User(2, 1), 2): Fraction(29, 10), (User(2, 1), 1): Fraction(1, 2),
    }
    return NetworkSpec.from_alpha(2, [3, 1], levels)


def test_partition_chain_inequality(monkeypatch):
    # The top user's margin 11/5 - 1/5 = 2 clears neither weaker direct, so
    # slots 1 and 2 are primed and the chain pair (1, 2) is checked:
    # 2 >= 21/10 - 11/10 + cross_12.
    net = _three_user_cell(Fraction(3, 5))
    assert evaluate_conditions(net).optimality_holds
    part = outer_bound_user_partition(net, 1, 2, 3)
    assert part.double_primed == frozenset()
    assert part.primed == {1, 2, 3}

    # Past the optimality conditions the chain can be tight or fail; claim
    # they hold to reach the check itself; networks built from here on read
    # the claimed flags.
    monkeypatch.setattr(conditions, "condition_flags", lambda lv: (True, True))
    assert outer_bound_user_partition(_three_user_cell(Fraction(1)), 1, 2, 3).primed == {1, 2, 3}
    with pytest.raises(TinGdofError, match=r"cell 1 slots \(1,2\) toward cell 2"):
        outer_bound_user_partition(_three_user_cell(Fraction(11, 10)), 1, 2, 3)


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
    def convexity_only_failure(lv, optimality):
        if not optimality:
            yield (1, 2, 2, 1, 1), 0, 1

    monkeypatch.setattr(conditions, "_cross_cell_failures", convexity_only_failure)
    with pytest.raises(TinGdofError):
        evaluate_conditions(pimac_optimal)


OPTIMALITY_WITHOUT_CONVEXITY = """
import sys
import numpy as np
from tin_gdof import cellsim, conditions
from tin_gdof.cellsim import ScenarioParams, estimate_probabilities
from tin_gdof.errors import TinGdofError
from tin_gdof.model import NetworkSpec, User

if __debug__:
    sys.exit("expected python -O")


def convexity_only_failure(lv, optimality):
    if not optimality:
        yield (1, 2, 2, 1, 1), 0, 1


conditions._cross_cell_failures = convexity_only_failure
# the Monte Carlo checks blocks of trials with its own pass; break it alike
cellsim._convexity_flags = lambda lv, direct: np.zeros(len(lv), dtype=bool)
net = NetworkSpec.from_alpha(
    2, [1, 1], {(User(1, 1), 1): 1, (User(1, 1), 2): 0, (User(2, 1), 2): 1, (User(2, 1), 1): 0}
)
calls = {
    "evaluate_conditions": lambda: conditions.evaluate_conditions(net),
    "condition_flags": lambda: conditions.condition_flags(net.levels),
    "estimate_probabilities": lambda: estimate_probabilities(
        ScenarioParams("linear", 243.0, users_per_cell=2, trials=3, seed=5)
    ),
}
for name, call in calls.items():
    try:
        call()
    except TinGdofError:
        continue
    sys.exit(f"{name} did not raise")
"""


def test_optimality_without_convexity_raises_under_python_O():
    # The same broken invariant as above, in a fresh ``python -O`` process,
    # through the witness report and through the Monte Carlo's booleans.
    src = str(Path(conditions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMALITY_WITHOUT_CONVEXITY],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


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
    after = evaluate_conditions(scaled_network(net, c))
    assert before.convexity_holds == after.convexity_holds
    assert before.optimality_holds == after.optimality_holds


# -- reference implementation --------------------------------------------------
# The plain Fraction triple loops that ``conditions`` replaced with integer
# levels and separable maxima; kept verbatim as the oracle.


def _mac_order_violations(net: NetworkSpec, optimality: bool) -> list[Violation]:
    """Per-cell conditions comparing a stronger user l against a weaker l' < l."""
    kind = (
        ConditionKind.MAC_ORDER_OPTIMALITY if optimality else ConditionKind.MAC_ORDER_CONVEXITY
    )
    out = []
    for i in range(1, net.cells + 1):
        n_i = net.users_per_cell[i - 1]
        for l_prime, l in itertools.combinations(range(1, n_i + 1), 2):
            strong, weak = User(i, l), User(i, l_prime)
            lhs = net.direct(strong)
            best_j, best = None, None
            for j in range(1, net.cells + 1):
                if j == i:
                    continue
                if optimality:
                    term = min(
                        net.alpha(strong, j),
                        2 * net.alpha(strong, j) - net.alpha(weak, j),
                    )
                else:
                    term = net.alpha(strong, j) - net.alpha(weak, j)
                if best is None or term > best:
                    best_j, best = j, term
            if best is None:
                continue  # single cell: nothing to compare against
            rhs = net.direct(weak) + best
            if lhs < rhs:
                out.append(Violation(kind, (i, best_j, None, l, l_prime), lhs, rhs))
    return out


def _cross_cell_violations(net: NetworkSpec, optimality: bool) -> list[Violation]:
    """Per-user conditions against interference caused plus interference received."""
    kind = (
        ConditionKind.CROSS_CELL_OPTIMALITY if optimality else ConditionKind.CROSS_CELL_CONVEXITY
    )
    out = []
    for i in range(1, net.cells + 1):
        for l in range(1, net.users_per_cell[i - 1] + 1):
            u = User(i, l)
            lhs = net.direct(u)
            worst = None  # (value, j, k, l_k)
            for j in range(1, net.cells + 1):
                if j == i:
                    continue
                caused = net.alpha(u, j)
                for k in range(1, net.cells + 1):
                    if k == i:
                        continue
                    for l_k in range(1, net.users_per_cell[k - 1] + 1):
                        v = User(k, l_k)
                        received = net.alpha(v, i)
                        if optimality:
                            term = caused + received
                        else:
                            relief = net.alpha(v, j) if k != j else Fraction(0)
                            term = caused + received - relief
                        if worst is None or term > worst[0]:
                            worst = (term, j, k, l_k)
            if worst is None:
                continue
            rhs, j, k, l_k = worst
            if lhs < rhs:
                out.append(Violation(kind, (i, j, k, l, l_k), lhs, rhs))
    return out


def oracle_report(net: NetworkSpec) -> ConditionReport:
    conv = _mac_order_violations(net, False) + _cross_cell_violations(net, False)
    opt = _mac_order_violations(net, True) + _cross_cell_violations(net, True)
    return ConditionReport(not conv, not opt, tuple(conv + opt))


def assert_matches_oracle(net: NetworkSpec) -> ConditionReport:
    report = evaluate_conditions(net)
    expected = oracle_report(net)
    assert report == expected
    assert repr(report) == repr(expected)  # same Fraction values, not just equal numbers
    return report


def lattice_network(rng: random.Random) -> NetworkSpec:
    """1..5 cells of 1..3 users, levels from a few values over mixed denominators.

    Every network mixes thirds and sevenths with a third random denominator,
    and draws its levels from a handful of values, so maxima and the two
    sides of a condition tie often.  Cell counts lean small, because the
    oracle's cost grows with the cube of the cell count.
    """
    cells = rng.choices((1, 2, 3, 4, 5), weights=(4, 10, 4, 1, 1))[0]
    users = [rng.randint(1, 3) for _ in range(cells)]
    denoms = (3, 7, rng.choice((1, 2, 4, 5, 6, 20)))
    pool = [Fraction(rng.randint(0, 2 * q), q) for q in denoms for _ in range(2)]
    boost = rng.choice((0, 1, 2))  # lifts direct levels so conditions often hold
    alpha = {
        (User(k, l), i): rng.choice(pool) + (boost if i == k else 0)
        for k in range(1, cells + 1)
        for l in range(1, users[k - 1] + 1)
        for i in range(1, cells + 1)
    }
    return NetworkSpec.from_alpha(cells, users, alpha)


def test_conditions_match_fraction_oracle_on_lattice_networks():
    rng = random.Random(51)
    outcomes, checked, cells = Counter(), 0, Counter()
    while checked < 10_000:
        net = lattice_network(rng)
        report = assert_matches_oracle(net)
        outcomes[report.convexity_holds, report.optimality_holds] += 1
        cells[net.cells] += 1
        checked += 1
        if rng.random() < 0.2:
            c = Fraction(rng.randint(1, 30), rng.choice((1, 3, 7, 11)))
            assert_matches_oracle(scaled_network(net, c))
            checked += 1
    assert min(cells[k] for k in range(1, 6)) >= 300
    # all three outcomes occur: optimal, convex only, neither
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def test_condition_flags_match_reports_on_lattice_networks():
    # The boolean kernel at another scale than ``net.levels``: every
    # level times 10^9, the scale of the cellular Monte Carlo's tables.
    rng = random.Random(51)
    outcomes = Counter()
    for _ in range(3_000):
        net = lattice_network(rng)
        report = evaluate_conditions(net)
        lv = net.levels
        scaled = [[[x * 10**9 for x in row] for row in cell] for cell in lv]
        flags = (report.convexity_holds, report.optimality_holds)
        assert condition_flags(scaled) == flags
        assert condition_flags(lv) == flags
        outcomes[flags] += 1
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def test_conditions_match_fraction_oracle_on_cell_samples():
    params = [
        ScenarioParams("linear", 243.0, users_per_cell=L, trials=1, seed=7)
        for L in (1, 3, 5)
    ] + [
        ScenarioParams("circular", r, users_per_cell=L, trials=1, seed=7, cells=cells)
        for cells, L, r in ((4, 2, 150.0), (5, 3, 200.0), (7, 1, 120.0), (7, 5, 250.0))
    ]
    for p in params:
        for trial in range(12):
            assert_matches_oracle(sample_network(p, trial))


def test_boundary_equality_counts_as_holding():
    # every optimality condition is tight: MAC 1.7 == 1.0 + min(0.7, 2*0.7 - 0.7);
    # cross-cell 1.0 == 0.7 + 0.3 for user (1,1) and 1 == 0.3 + 0.7 for user (2,1)
    tight = pimac("1.0", "1.7", "1", "0.7", "0.7", "0.3")
    report = assert_matches_oracle(tight)
    assert report.optimality_holds and report.violations == ()
    # one more tenth of caused interference breaks the MAC and cross-cell conditions
    over = assert_matches_oracle(pimac("1.0", "1.7", "1", "0.7", "0.8", "0.3"))
    assert not over.optimality_holds
