"""Sufficient conditions on strength levels: region convexity and optimality.

Two pairs of conditions are evaluated exactly:

* convexity pair: (a) each cell's stronger users keep their in-cell edge
  even after deferring to the worst cross link they cause; (b) the classic
  cross-cell condition applied to every single-user-per-cell subnetwork.
  Together they make the achievable union a single polytope (the ascending
  decode order dominates).
* optimality pair: strictly stronger versions of both; under them the
  fixed-order region is the full GDoF region and the finite-SNR bound holds.

These are sufficient conditions only; nothing here decides convexity or
optimality as such.

The checks run on exact integers: every level is scaled to an integer over
a common denominator, and each side of a condition is a sum of at most
three such integers.  One kernel yields the failing conditions of such a
table.  ``evaluate_conditions`` runs it on ``NetworkSpec.integer_levels`` and
turns each failure into a ``Violation`` witness; ``condition_flags`` takes
only the two booleans of any integer table, stopping at the first failure,
for ``NetworkSpec.convexity_holds``.  The cellular Monte Carlo checks whole
blocks of trials at once in ``cellsim``, against these two as its oracle.
The cross-cell maxima are separable, so the interferer part is maximized
once per cell pair rather than once per user.  The plain ``Fraction`` triple loops that this replaces
are kept in the tests as the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import TinGdofError, TopologyError
from .model import NetworkSpec, User


class ConditionKind(Enum):
    MAC_ORDER_CONVEXITY = "mac-order-convexity"
    CROSS_CELL_CONVEXITY = "cross-cell-convexity"
    MAC_ORDER_OPTIMALITY = "mac-order-optimality"
    CROSS_CELL_OPTIMALITY = "cross-cell-optimality"


@dataclass(frozen=True)
class Violation:
    condition: ConditionKind
    #: (i, j, k, l, l'); entries not applicable to the condition are None
    indices: tuple
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ConditionReport:
    convexity_holds: bool
    optimality_holds: bool
    violations: tuple[Violation, ...]


def _mac_order_failures(lv, optimality: bool):
    """Per-cell conditions comparing a stronger user l against a weaker l' < l.

    Yields ``(indices, lhs, rhs)`` for each failing condition of the integer
    table ``lv``, with both sides at the table's scale.
    """
    cells = len(lv)
    for i, cell in enumerate(lv):
        others = [j for j in range(cells) if j != i]
        if not others:
            continue  # single cell: nothing to compare against
        for l_prime, l in itertools.combinations(range(len(cell)), 2):
            strong, weak = cell[l], cell[l_prime]
            if optimality:
                terms = [min(strong[j], 2 * strong[j] - weak[j]) for j in others]
            else:
                terms = [strong[j] - weak[j] for j in others]
            best = max(terms)
            rhs = weak[i] + best
            if strong[i] < rhs:
                j = others[terms.index(best)]
                yield (i + 1, j + 1, None, l + 1, l_prime + 1), strong[i], rhs


def _cross_cell_failures(lv, optimality: bool):
    """Per-user conditions against interference caused plus interference received.

    For user u of cell i the condition compares its direct level with the
    maximum over cells j != i and interferers v = (k, l_k), k != i, of
    caused(u, j) + received(v, i), less alpha(v, j) when k != j for the
    convexity pair.  The part that depends on v is maximized once per (i, j),
    so each user only takes a maximum over j.  Every maximum keeps its first
    maximizer in (j, k, l_k) order, which is the witness of the plain triple
    loop.  Yields failures as ``_mac_order_failures`` does.
    """
    cells = len(lv)
    for i, cell in enumerate(lv):
        others = [j for j in range(cells) if j != i]
        if not others:
            continue
        interferers = [(k, l_k, v) for k in others for l_k, v in enumerate(lv[k])]
        # best[j]: (largest v-term toward cell j, index of its first interferer)
        if optimality:
            received = [v[i] for _, _, v in interferers]
            top = max(received)
            best = dict.fromkeys(others, (top, received.index(top)))
        else:
            best = {}
            for j in others:
                terms = [v[i] - v[j] if k != j else v[i] for k, _, v in interferers]
                top = max(terms)
                best[j] = (top, terms.index(top))
        for l, u in enumerate(cell):
            totals = [u[j] + best[j][0] for j in others]
            rhs = max(totals)
            if u[i] < rhs:
                j = others[totals.index(rhs)]
                k, l_k, _ = interferers[best[j][1]]
                yield (i + 1, j + 1, k + 1, l + 1, l_k + 1), u[i], rhs


def _violations(failures, kind: ConditionKind, den: int) -> list[Violation]:
    return [
        Violation(kind, indices, Fraction(lhs, den), Fraction(rhs, den))
        for indices, lhs, rhs in failures
    ]


def _mac_order_violations(net: NetworkSpec, optimality: bool) -> list[Violation]:
    kind = (
        ConditionKind.MAC_ORDER_OPTIMALITY if optimality else ConditionKind.MAC_ORDER_CONVEXITY
    )
    den, lv = net.integer_levels
    return _violations(_mac_order_failures(lv, optimality), kind, den)


def _cross_cell_violations(net: NetworkSpec, optimality: bool) -> list[Violation]:
    kind = (
        ConditionKind.CROSS_CELL_OPTIMALITY if optimality else ConditionKind.CROSS_CELL_CONVEXITY
    )
    den, lv = net.integer_levels
    return _violations(_cross_cell_failures(lv, optimality), kind, den)


def _implied(convexity_holds: bool, optimality_holds: bool) -> None:
    """The optimality pair implies the convexity pair; anything else is a bug."""
    if optimality_holds and not convexity_holds:
        raise TinGdofError("the optimality conditions hold but the convexity conditions do not")


def evaluate_conditions(net: NetworkSpec) -> ConditionReport:
    """Evaluate both condition pairs; all comparisons exact and non-strict."""
    conv = _mac_order_violations(net, False) + _cross_cell_violations(net, False)
    opt = _mac_order_violations(net, True) + _cross_cell_violations(net, True)
    _implied(not conv, not opt)
    return ConditionReport(not conv, not opt, tuple(conv + opt))


def condition_flags(lv) -> tuple[bool, bool]:
    """``(convexity_holds, optimality_holds)`` of an integer level table.

    ``lv[k][l][i]`` is the level of slot ``l + 1`` of cell ``k + 1`` at the
    receiver of cell ``i + 1``, times any common positive scale, with slots
    ascending by direct level in every cell.  The conditions are linear and
    homogeneous, so the scale does not change the outcome.  The same checks
    as ``evaluate_conditions``, without witnesses: each pair stops at its
    first failing condition.
    """
    conv, opt = (
        next(_mac_order_failures(lv, optimality), None) is None
        and next(_cross_cell_failures(lv, optimality), None) is None
        for optimality in (False, True)
    )
    _implied(conv, opt)
    return conv, opt


# -- user partition used by the rate outer bound ------------------------------


@dataclass(frozen=True)
class UserPartition:
    double_primed: frozenset  # slots whose direct level the attenuated top user clears
    primed: frozenset


def outer_bound_user_partition(net: NetworkSpec, i: int, j: int, l_i: int) -> UserPartition:
    """Split slots 1..l_i of cell i by the attenuated top-user level toward cell j.

    A slot s < l_i is double-primed when the top user's direct level minus
    its cross level toward cell j still reaches slot s's direct level.  When
    the optimality conditions hold, the primed slots (top user excluded)
    satisfy the chain inequality the outer-bound derivation relies on; this
    is checked here, and a failure raises ``TinGdofError``.
    """
    if i == j:
        raise TopologyError("partition needs two distinct cells")
    top = User(i, l_i)
    margin = net.direct(top) - net.alpha(top, j)
    double_primed = frozenset(
        s for s in range(1, l_i) if margin >= net.direct(User(i, s))
    )
    primed = frozenset(range(1, l_i + 1)) - double_primed
    if evaluate_conditions(net).optimality_holds:
        chain = sorted(primed - {l_i})
        for s_prime, l_prime in itertools.combinations(chain, 2):
            s_u, l_u = User(i, s_prime), User(i, l_prime)
            if margin < net.direct(s_u) - net.alpha(s_u, j) + net.alpha(l_u, j):
                raise TinGdofError(
                    f"partition chain inequality failed for cell {i} slots "
                    f"({s_prime},{l_prime}) toward cell {j}"
                )
    return UserPartition(double_primed, primed)


# -- two-cell three-user regime classification --------------------------------


class PimacRegimeLabel(Enum):
    A_O_PRIME = "optimality-first-branch"
    A_O_DOUBLEPRIME_ONLY = "optimality-second-branch-only"
    A_P_MINUS_A_O = "convex-only"
    A_MINUS_A_P = "in-box-not-convex"
    OUTSIDE_A = "outside-box"


@dataclass(frozen=True)
class PimacRegime:
    label: PimacRegimeLabel
    #: cross-level caps (a_1, a_2) = min(direct of the other cell's user,
    #: direct of this user) - cross level received by cell 1
    box_bounds: tuple[Fraction, Fraction]


def classify_pimac(net: NetworkSpec) -> PimacRegime:
    """Classify a 2-cell network (two users + one user) by its cross levels.

    With directs and the interference received by the two-user cell fixed,
    the cross levels caused by the two-user cell select one of four regimes:
    both optimality branches, the first branch, convex-only, or in-box but
    not convex; levels outside the admissible box fall outside all of them.
    Boundary equalities count as inside.
    """
    if net.cells != 2 or net.users_per_cell != (2, 1):
        raise TopologyError(
            f"classifier needs 2 cells with (2, 1) users, got {net.users_per_cell}"
        )
    u11, u12, u21 = User(1, 1), User(1, 2), User(2, 1)
    a11_1, a11_2 = net.direct(u11), net.direct(u12)
    a22 = net.direct(u21)
    cross_received = net.alpha(u21, 1)
    cross_1 = net.alpha(u11, 2)
    cross_2 = net.alpha(u12, 2)

    box = (min(a22, a11_1) - cross_received, min(a22, a11_2) - cross_received)
    if not (0 <= cross_1 <= box[0] and 0 <= cross_2 <= box[1]):
        return PimacRegime(PimacRegimeLabel.OUTSIDE_A, box)

    gap = a11_2 - a11_1
    first_branch = gap >= cross_2
    second_branch = gap >= 2 * cross_2 - cross_1
    convex = gap >= cross_2 - cross_1
    if first_branch:
        label = PimacRegimeLabel.A_O_PRIME
    elif second_branch:
        label = PimacRegimeLabel.A_O_DOUBLEPRIME_ONLY
    elif convex:
        label = PimacRegimeLabel.A_P_MINUS_A_O
    else:
        label = PimacRegimeLabel.A_MINUS_A_P
    return PimacRegime(label, box)
