"""Region analysis: membership search, exact optimization, inclusion tests,
the strength-level outer bound, and finite-SNR rate/gap evaluation.

GDoF-level computations are exact (rationals end to end); finite-SNR rate
computations are floating point, since rate logarithms have no exact
representation.  All rates are in bits per channel use (base-2 logs).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import _flow, _lp
from .errors import (
    ConditionsNotMetError,
    EmptyRegionError,
    GuardExceededError,
    NetworkSpecError,
    TinGdofError,
)
from .model import (
    DecodingOrder,
    FiniteSnrSpec,
    NetworkSpec,
    Subnetwork,
    User,
    _per_user,
    enumerate_orders,
)
from .potential import (
    Circuit,
    PowerAllocation,
    _bellman_ford,
    _fraction_graph,
    _shifted,
    feasible_by_negative_cycle,
    potential_skeleton,
)
from .regions import (
    GdofTuple,
    LinearInequality,
    PolyRegion,
    bound_indices,
    polyhedral_region,
)

#: Vertex enumeration refuses regions with more active users than this.
VERTEX_GUARD_DIM = 8


# -- achievable GDoF evaluator ----------------------------------------------


def _decoded_users(net: NetworkSpec, order: DecodingOrder, alloc: PowerAllocation) -> Subnetwork:
    """The users that ``order`` decodes, after its scope check; ``alloc``
    must give each of them a power exponent."""
    active = order.validate(net, order.active_users())
    unpowered = active - alloc.exponents.keys()
    if unpowered:
        raise NetworkSpecError(
            f"decoding order lists users that the allocation turns off or leaves out: "
            f"{sorted(unpowered)}"
        )
    return active


def achievable_gdof(
    net: NetworkSpec,
    order: DecodingOrder,
    alloc: PowerAllocation,
) -> dict[User, Fraction]:
    """Per-user GDoF ceiling of a decoding order and power allocation.

    For the user at decode position ``l`` of cell ``k``: its own received
    exponent minus the larger of (a) the strongest not-yet-decoded in-cell
    exponent and (b) the strongest inter-cell exponent, the penalty floored
    at zero, and the result floored at zero.  Users marked off contribute
    nothing and get zero.  The order and the allocation are checked first:
    the order must be one of a subnetwork of ``net``, and the allocation
    must power every user it decodes.
    """
    active = _decoded_users(net, order, alloc)
    out: dict[User, Fraction] = {u: Fraction(0) for u in net.users}
    rx_exponent = {u: alloc[u] + net.direct(u) for u in active}
    for k in range(1, net.cells + 1):
        interference = [alloc[v] + net.alpha(v, k) for v in active if v.cell != k]
        for pos in range(1, len(order.slots(k)) + 1):
            undecoded = [rx_exponent[order.user_at(k, p)] for p in range(1, pos)]
            penalty = max([Fraction(0), *undecoded, *interference])
            u = order.user_at(k, pos)
            out[u] = max(rx_exponent[u] - penalty, Fraction(0))
    return out


def gdof_dominates(
    net: NetworkSpec, order: DecodingOrder, alloc: PowerAllocation, d: GdofTuple
) -> bool:
    """Whether the allocation's achievable GDoF covers ``d`` componentwise;
    ``d`` on a user the network does not have is a ``NetworkSpecError``."""
    unknown = d.d.keys() - net.full_subnetwork
    if unknown:
        raise NetworkSpecError(f"GDoF tuple indexes unknown users {sorted(unknown)}")
    ceil = achievable_gdof(net, order, alloc)
    return all(ceil[u] >= d[u] for u in net.users)


# -- general membership (union over orders and subnetworks) ------------------


@dataclass(frozen=True)
class MembershipWitness:
    order: DecodingOrder
    subnetwork: Subnetwork
    allocation: PowerAllocation


@dataclass(frozen=True)
class GeneralMembership:
    member: bool
    witness: MembershipWitness | None = None

    def __bool__(self) -> bool:
        return self.member


def general_membership(net: NetworkSpec, d: GdofTuple) -> GeneralMembership:
    """Search the union of fixed-order regions for a strategy achieving ``d``.

    It suffices to activate exactly the support of ``d`` and scan the decode
    orders of that subnetwork; a tuple achievable with any strategy is also
    achievable with its zero users switched off.  The all-zero tuple has one
    such order, the empty one, and every user off.  Each order costs one
    ``feasible_by_negative_cycle`` pass over the potential graph of the
    support, and the first feasible one's allocation, with the other users
    off, is the witness.

    When the network meets the convexity conditions, the first order, the
    identity order of the support S, decides alone.  By the paper's
    convexity theorem every fixed-order region of every subnetwork lies in
    the identity-order region P of the full network, so an achievable d is
    in P.  Each bound of the identity-order region P_S of S has the same
    tops, and so the same rhs, as a bound of P whose user set adds only
    users outside S, where d is 0.  Hence P ∩ {supp d ⊆ S} ⊆ P_S: d is
    achievable iff it passes the identity order of S.  Members get the same
    witness as from the full scan; non-members cost one Bellman-Ford pass
    instead of prod_i |S_i|!.  Other networks scan every order.
    """
    support = d.support()
    off = net.full_subnetwork - support
    # enumerate_orders checks the support, once, and yields only its orders.
    for order in enumerate_orders(net, support):
        result = feasible_by_negative_cycle(_fraction_graph(net, order, support, d), off)
        if result.feasible:
            return GeneralMembership(True, MembershipWitness(order, support, result.allocation))
        if net.convexity_holds:
            break
    return GeneralMembership(False)


# -- exact optimization and vertex enumeration -------------------------------


def _system(region: PolyRegion) -> tuple[list[User], list[list[Fraction]], list[Fraction]]:
    """Inequality system of a region over its active coordinates, the only
    ones its rows range over.

    Constraints with the same user support are merged to their smallest rhs
    (only that one can bind), which keeps the feasible set identical.
    """
    users = list(region.active_users())
    index = {u: j for j, u in enumerate(users)}
    best: dict[frozenset, Fraction] = {}
    for q in region.inequalities:
        if q.users not in best or q.rhs < best[q.users]:
            best[q.users] = q.rhs
    rows, rhs = [], []
    for support, bound in sorted(best.items(), key=lambda kv: sorted(kv[0])):
        row = [Fraction(0)] * len(users)
        for u in support:
            row[index[u]] = Fraction(1)
        rows.append(row)
        rhs.append(bound)
    return users, rows, rhs


@dataclass(frozen=True)
class WeightedOptimum:
    value: Fraction
    argmax: GdofTuple


class FlowNetwork(NamedTuple):
    """The weight-independent part of a region's min-cost-flow problem.

    ``users`` are the active users; user ``users[i]`` is split into nodes
    ``2i + 1`` (in) and ``2i + 2`` (out), and node 0 is ground.  ``arcs`` are
    the potential-graph edges at d = 0 and the split arcs, with integer
    costs over ``den``; ``potential`` gives each of them a nonnegative
    reduced cost.
    """

    den: int
    users: tuple[User, ...]
    arcs: tuple[tuple[int, int, int], ...]
    potential: tuple[int, ...]


def flow_network(region: PolyRegion) -> FlowNetwork:
    """The ``FlowNetwork`` of a fixed-order region.

    The region's ``source`` is a scope that ``polyhedral_region`` has
    checked, so it goes to ``potential_skeleton`` unchecked.  The arcs are
    the edges of that skeleton, whose lengths at d = 0 are already integers
    over ``den``, and the start potentials are its ground distances from
    one ``_bellman_ford`` pass over those integers; no ``Fraction`` is
    made.  A negative circuit there means the region is empty.
    ``PolyRegion.flow_network`` keeps the result, so repeated solves over
    one region build it once.
    """
    sk = potential_skeleton(*region.source)
    dist = _bellman_ford(sk)
    if isinstance(dist, Circuit):
        raise EmptyRegionError(
            f"region is empty: no feasible power allocation: circuit {dist.vertices} "
            f"has length {dist.length}"
        )
    n = len(sk.vertices)
    # Vertex i > 0 is user i - 1, split into nodes 2i - 1 (in) and 2i (out).
    node_in = [0, *range(1, 2 * n - 1, 2)]
    node_out = [0, *range(2, 2 * n - 1, 2)]
    arcs = [(node_out[t], node_in[h], c) for t, h, c in sk.edges]
    arcs += [(2 * i - 1, 2 * i, 0) for i in range(1, n)]
    potential = [0]
    for u in sk.vertices[1:]:
        potential += [dist[u], dist[u]]
    return FlowNetwork(sk.den, sk.vertices[1:], tuple(arcs), tuple(potential))


def max_weighted_gdof(region: PolyRegion, weights: Mapping) -> WeightedOptimum:
    """Exact maximum of a nonnegative-weighted GDoF sum over the region.

    Solved as an integer min-cost flow on the potential graph of the
    region's ``source``, without building its inequality list.  By the
    potential theorem, the region is {d >= 0 : some pi has
    pi_v - pi_u + d_u <= c_uv on every edge out of a user u and
    pi_v - pi_ground <= 0 on every ground edge}, with c the edge lengths of
    the potential graph at d = 0.  The LP dual of max sum w_u d_u over it is
    a min-cost circulation f >= 0 on the same edges in which each user's
    out-flow is at least w_u.  Each user is split into ``in -> out`` with
    that lower bound, shifted into a supply w_u at ``out`` and a demand w_u
    at ``in``.  Lengths are scaled to integers by the levels' common
    denominator ``den``, weights by theirs, ``den_w``.  The arcs and start
    potentials are the region's ``flow_network``, built on its first solve.
    Optimal potentials give the argmax d_u = (p(in) - p(out)) / den, the
    reduced cost of u's split arc.  Raises ``EmptyRegionError`` when the
    region is empty.
    """
    weights = _per_user(weights, "weights")
    unknown = weights.keys() - set(region.dim_users)
    if unknown:
        raise NetworkSpecError(f"weights index unknown users {sorted(unknown)}")
    if any(w < 0 for w in weights.values()):
        raise NetworkSpecError("weights must be nonnegative")
    den, users, arcs, potential = region.flow_network
    zero = Fraction(0)
    w = [weights.get(u, zero) for u in users]
    den_w = math.lcm(*(x.denominator for x in w))
    supply = [0] * len(potential)
    for i, x in enumerate(w):
        supply[2 * i + 2] = x.numerator * (den_w // x.denominator)
        supply[2 * i + 1] = -supply[2 * i + 2]
    cost, p = _flow.min_cost_flow(len(supply), arcs, supply, potential)
    gaps = [p[2 * i + 1] - p[2 * i + 2] for i in range(len(users))]
    # Equal primal and dual objectives certify that both are optimal:
    # sum_u w_u d_u == value, with w_u = supply / den_w and d_u = gap / den,
    # checked on the integers over den * den_w.
    if any(g < 0 for g in gaps) or sum(map(operator.mul, supply[2::2], gaps)) != cost:
        raise TinGdofError("min-cost flow potentials do not attain the flow cost")
    d = dict.fromkeys(region.dim_users, zero)
    d.update((u, Fraction(g, den)) for u, g in zip(users, gaps))
    return WeightedOptimum(Fraction(cost, den * den_w), GdofTuple(d))


def vertices(region: PolyRegion) -> list[GdofTuple]:
    """Exact vertex set of the region, canonically ordered.

    Forced-zero coordinates are projected out, the vertices of the merged
    system are found by exact double description (``_lp.enumerate_vertices``),
    and the zeros are re-inserted.  Guarded to ``VERTEX_GUARD_DIM`` active
    users: 4 cells of 2 users take seconds, and the vertex count grows
    quickly beyond.
    """
    users, rows, rhs = _system(region)
    if len(users) > VERTEX_GUARD_DIM:
        raise GuardExceededError(
            f"{len(users)} active users exceed the vertex enumeration guard "
            f"({VERTEX_GUARD_DIM})"
        )
    if any(b < 0 for b in rhs):
        return []  # all-zero is infeasible, so the region is empty
    out = []
    for point in _lp.enumerate_vertices(rows, rhs):
        d = {u: Fraction(0) for u in region.dim_users}
        d.update(dict(zip(users, point)))
        out.append(GdofTuple(d))
    return out


def region_includes(outer: PolyRegion, inner: PolyRegion) -> bool:
    """Whether every point (equivalently, every vertex) of inner lies in outer.

    Decided constraint by constraint: the exact maximum of an outer
    constraint's user sum over the inner region, from ``max_weighted_gdof``
    once per distinct set of inner-active users, is compared against its
    rhs.  An empty inner region lies in every region.
    """
    if set(outer.dim_users) != set(inner.dim_users):
        raise NetworkSpecError("regions index different user sets")
    inner_active = frozenset(inner.active_users())
    outer_constraints = list(outer.inequalities)
    for u in sorted(outer.forced_zero - inner.forced_zero):
        outer_constraints.append(LinearInequality(frozenset([u]), Fraction(0)))
    sup: dict[frozenset, Fraction] = {}
    for q in outer_constraints:
        live = q.users & inner_active
        if live not in sup:
            try:
                sup[live] = max_weighted_gdof(inner, dict.fromkeys(live, 1)).value
            except EmptyRegionError:
                return True
        if sup[live] > q.rhs:
            return False
    return True


# -- strength-level outer bound ----------------------------------------------


def gdof_outer_bound(net: NetworkSpec) -> PolyRegion:
    """High-SNR limit of the rate outer bound, as an inequality system.

    Only valid when the optimality conditions hold (otherwise the rate bound
    itself is not proven and this refuses).  Each single-cell rate bound
    limits to the top user's direct level; each cyclic rate bound limits to
    the sum of (direct - cross-to-predecessor) differences.  That is the
    identity-order region, bound for bound.
    """
    if not net.optimality_holds:
        raise ConditionsNotMetError(
            "outer bound is only established when the optimality conditions hold"
        )
    return polyhedral_region(net, DecodingOrder.identity(net))


# -- finite-SNR rate bounds, achievable rates, gaps ---------------------------


@dataclass(frozen=True)
class RateBound:
    """An upper bound on the rate sum of a user set, in bits per channel use."""

    users: frozenset
    rhs_bits: float
    kind: str = ""  # "cell" or "cyclic", for reporting


def _require_link_assumption(fs: FiniteSnrSpec) -> None:
    """Refuse a link whose power ``|h|^2 * P_tx`` is below the noise floor, 1.

    The floor allows for rounding and no more.  A power read from a file
    is within a relative 4.5 eps + O(eps^2) of the power as written, with
    eps = ``sys.float_info.epsilon`` = 2^-52 (``model._link_power``).
    Floats below 1 are eps / 2 apart, so a link written at the floor
    computes to at least 1 - 4.5 eps, and only a smaller value shows a link
    below it.  The slack is needed: a unit gain written as the cosine and
    sine of one angle, (0.5480426514161516, 0.8364503883846037), computes
    to 1 - eps.
    """
    floor = 1.0 - 4.5 * sys.float_info.epsilon
    for (user, rx), power in fs.link_powers.items():
        if power < floor:
            raise NetworkSpecError(
                f"link {user}->rx{rx} has power below the noise floor; "
                "the rate outer bound requires every link at or above it"
            )


def outer_bound_rates(fs: FiniteSnrSpec) -> list[RateBound]:
    """Finite-SNR rate outer bound, one entry per bound index.

    Single-cell bounds: log2(1 + depth * S) with S the top user's direct
    link power.  Cyclic bounds: sum over participating cells of
    (depth - 1) * log2(depth) + log2(1 + (depth_next + depth) * S / C), with
    S / C the direct-to-cross power ratio of the cell's top user toward its
    cyclic predecessor.  Requires the optimality conditions at the
    strength-level network and every link at or above the noise floor.

    Each bound exceeds ``rhs * log2(P)`` of its ``gdof_outer_bound`` limit by
    an additive constant that does not depend on P.  A cell bound at depth
    l exceeds it by ``log2(P^-a + l)``, in [log2(l), log2(l + 1)], since
    S = P^a >= 1.  A cyclic bound exceeds it by the sum over its cells of
    ``(l - 1) log2(l) + log2(C / S + l_next + l)``, where each term is in
    [(l - 1) log2(l) + log2(l_next + l), (l - 1) log2(l) + log2(l_next + l + 1)].
    That needs S / C >= 1, which the cross-cell optimality condition gives:
    a user's direct level is at least the cross level it causes plus a
    received level, and levels are nonnegative.
    """
    net, fs = fs.levels
    _require_link_assumption(fs)
    if not net.optimality_holds:
        raise ConditionsNotMetError(
            "rate outer bound is only established when the optimality conditions hold"
        )
    bounds: list[RateBound] = []
    for index in bound_indices(net, DecodingOrder.identity(net)):
        if index.kind == "cell":
            (cell,), (depth,), (top,) = index.cells, index.depths, index.tops
            s_top = fs.clipped_link_power(top, cell)
            bounds.append(RateBound(index.users, math.log2(1 + depth * s_top), index.kind))
            continue
        m = len(index.cells)
        total = 0.0
        for j, (cell, depth, top) in enumerate(zip(index.cells, index.depths, index.tops)):
            pred = index.cells[j - 1]
            ratio = fs.clipped_link_power(top, cell) / fs.clipped_link_power(top, pred)
            total += (depth - 1) * math.log2(depth)
            total += math.log2(1 + (index.depths[(j + 1) % m] + depth) * ratio)
        bounds.append(RateBound(index.users, total, index.kind))
    return bounds


def achievable_rates(
    fs: FiniteSnrSpec, order: DecodingOrder, alloc: PowerAllocation
) -> dict[User, float]:
    """Per-user rates of successive decoding under power control, in bits.

    The user at decode position ``l`` sees the not-yet-decoded in-cell
    signals and all active other-cell signals as noise.  Users marked off
    get rate zero and appear in no denominator.

    Against the ``achievable_gdof`` ceiling ``d`` of the strength-level
    network, each active user's rate satisfies
    ``d * log2(P) - log2(1 + n) <= rate <= d * log2(P) + 1``, where n counts
    the signals it treats as noise.  The reason is that the noise, with
    its unit floor, lies in [P^pen, (1 + n) P^pen] for the floored penalty
    ``pen``.  A user whose ceiling is zero can still get up to one bit.
    The order and the allocation are checked as ``achievable_gdof`` checks
    them.
    """
    net, fs = fs.levels
    return _rates(net, fs, order, alloc, _decoded_users(net, order, alloc))


def _rates(
    net: NetworkSpec, fs: FiniteSnrSpec, order: DecodingOrder, alloc: PowerAllocation, active
) -> dict[User, float]:
    """``achievable_rates`` of ``fs``, labelled in the slot order of its level
    network ``net``, once ``_decoded_users`` has checked ``order`` and
    ``alloc`` and found the decoded users ``active``."""
    p = fs.nominal_power
    rates: dict[User, float] = {u: 0.0 for u in net.users}
    for k in range(1, net.cells + 1):
        decoded = [order.user_at(k, pos) for pos in range(1, len(order.slots(k)) + 1)]
        if not decoded:
            continue
        # every active user's power at receiver k, computed once
        power = {v: p ** float(alloc[v]) * fs.clipped_link_power(v, k) for v in active}
        other_cells = [power[v] for v in active if v.cell != k]
        for pos, u in enumerate(decoded):
            noise = 1.0
            for w in decoded[:pos]:
                noise += power[w]
            for x in other_cells:
                noise += x
            rates[u] = math.log2(1 + power[u] / noise)
    return rates


@dataclass(frozen=True)
class BoundGap:
    bound: RateBound
    achieved_sum: float
    gap_bits: float


@dataclass(frozen=True)
class GapReport:
    per_bound: tuple[BoundGap, ...]
    corners_used: int

    @property
    def max_gap_bits(self) -> float:
        """The largest gap of ``per_bound``."""
        return max(bg.gap_bits for bg in self.per_bound)


def gap_report(fs: FiniteSnrSpec) -> GapReport:
    """Gap between the rate outer bound and rates achieved at region corners.

    Every corner of the fixed-identity-order region is realized through its
    ground-distance power allocation and evaluated at finite SNR; each bound
    is compared against the best corner for its user set.  The region's
    ``potential_skeleton`` is built once, and each corner's allocation is
    the one ``feasible_by_negative_cycle`` gives on the skeleton shifted to
    the corner, one pass over integers.  A corner lies in the region, so it
    has an allocation; one without is a ``TinGdofError``.  The order's
    scope is checked once per report, by ``polyhedral_region``, and every
    corner's allocation powers every user.
    All gaps must be nonnegative (up to float rounding) on instances where
    the outer bound applies.
    """
    bounds = outer_bound_rates(fs)  # also enforces the preconditions
    net, fs_sorted = fs.levels
    order = DecodingOrder.identity(net)
    corner_list = vertices(polyhedral_region(net, order))  # checks the order, once
    skeleton = potential_skeleton(net, order)
    corner_rates = []
    for d in corner_list:
        alloc = feasible_by_negative_cycle(_shifted(skeleton, d)).allocation
        if alloc is None:
            raise TinGdofError(f"region corner {d} has no power allocation")
        corner_rates.append(_rates(net, fs_sorted, order, alloc, net.full_subnetwork))
    per_bound = []
    for bound in bounds:
        achieved = max(
            (sum(r[u] for u in bound.users) for r in corner_rates), default=0.0
        )
        per_bound.append(BoundGap(bound, achieved, bound.rhs_bits - achieved))
    return GapReport(tuple(per_bound), len(corner_list))
