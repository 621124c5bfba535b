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
three such integers.  Two kernels, one per condition shape (per-cell and
cross-cell), yield the failing conditions of such a table for either pair.
``evaluate_conditions`` runs the four (condition, kernel, pair) cases in one
loop over ``NetworkSpec.levels`` and turns each failure into a
``Violation`` witness; ``condition_flags`` takes only the two booleans of
any integer table, stopping at the first failure, for the flags that
``NetworkSpec`` caches.  The cellular Monte Carlo checks whole blocks of
trials at once in ``cellsim``, against these two as its oracle.  Each
kernel is the paper's condition written as a direct loop over integers;
the plain ``Fraction`` loops are kept in the tests as the oracle.
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
    convexity pair.  The witness is the first maximizer in (j, k, l_k)
    order.  Yields failures as ``_mac_order_failures`` does.
    """
    cells = len(lv)
    for i, cell in enumerate(lv):
        others = [j for j in range(cells) if j != i]
        if not others:
            continue
        for l, u in enumerate(cell):
            rhs, j, k, l_k = max(
                (
                    (u[j] + v[i] - (v[j] if k != j and not optimality else 0), j, k, l_k)
                    for j in others
                    for k in others
                    for l_k, v in enumerate(lv[k])
                ),
                key=lambda term: term[0],
            )
            if u[i] < rhs:
                yield (i + 1, j + 1, k + 1, l + 1, l_k + 1), u[i], rhs


def _implied(convexity_holds: bool, optimality_holds: bool) -> None:
    """The optimality pair implies the convexity pair; anything else is a bug."""
    if optimality_holds and not convexity_holds:
        raise TinGdofError("the optimality conditions hold but the convexity conditions do not")


def evaluate_conditions(net: NetworkSpec) -> ConditionReport:
    """Evaluate both condition pairs; all comparisons exact and non-strict.

    Violations come per-cell first, then cross-cell, for the convexity pair
    and then for the optimality pair, each kernel in its own yield order.
    """
    den, lv = net.den, net.levels
    found = {False: [], True: []}
    for kind, failures, optimality in (
        (ConditionKind.MAC_ORDER_CONVEXITY, _mac_order_failures, False),
        (ConditionKind.CROSS_CELL_CONVEXITY, _cross_cell_failures, False),
        (ConditionKind.MAC_ORDER_OPTIMALITY, _mac_order_failures, True),
        (ConditionKind.CROSS_CELL_OPTIMALITY, _cross_cell_failures, True),
    ):
        found[optimality] += (
            Violation(kind, indices, Fraction(lhs, den), Fraction(rhs, den))
            for indices, lhs, rhs in failures(lv, optimality)
        )
    conv, opt = found[False], found[True]
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
