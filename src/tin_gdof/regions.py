"""Polyhedral achievable-region machinery.

The achievable GDoF region of a fixed decoding order is a polytope: per-cell
prefix bounds plus one bound per cyclic sequence of cells and per choice of
decode-depth in each participating cell.  This module enumerates that bound
index set in one place (``bound_indices``) and maps it to the explicit
inequality list.  ``set_function_f`` gives the rhs attached to one
decode-prefix user set: the smallest ``bound_rhs`` over the bounds with
that user set.  The module also tests membership of GDoF tuples with
exact rational arithmetic.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import NetworkSpecError
from .model import DecodingOrder, NetworkSpec, Rational, Subnetwork, User, _user, rationalize


def enumerate_cyclic_sequences(cells: Iterable[int], min_len: int = 1) -> Iterator[tuple]:
    """All cyclic sequences over nonempty subsets of ``cells`` with length >= min_len.

    A cyclic sequence is an ordered tuple of distinct cells, identified up
    to rotation.  Each appears exactly once, as a plain tuple in canonical
    form (rotated so the smallest cell comes first), ordered by (length,
    subset, arrangement).  The count for n cells and min_len=1 is
    sum_m C(n,m)*(m-1)!.
    """
    cells = sorted(set(cells))
    if not cells:
        raise NetworkSpecError("cell set must be nonempty")
    if min_len < 1:
        raise NetworkSpecError("min_len must be >= 1")
    for m in range(min_len, len(cells) + 1):
        for subset in itertools.combinations(cells, m):
            anchor, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                yield (anchor,) + perm


@dataclass(frozen=True)
class LinearInequality:
    """sum of d over ``users`` <= ``rhs`` (all coefficients are 0 or 1);
    ``rhs`` goes through ``rationalize``."""

    users: frozenset
    rhs: Fraction

    def __post_init__(self):
        if not self.users:
            raise NetworkSpecError("inequality needs at least one user")
        object.__setattr__(self, "rhs", rationalize(self.rhs))

    def evaluate(self, d: "GdofTuple") -> Fraction:
        return sum((d[u] for u in self.users), Fraction(0))

    def holds(self, d: "GdofTuple") -> bool:
        return self.evaluate(d) <= self.rhs


@dataclass(frozen=True)
class GdofTuple:
    """One nonnegative GDoF value per user; keys go through the user-key
    rule, values through ``rationalize``."""

    d: Mapping

    def __post_init__(self):
        frozen = {_user(u): rationalize(v) for u, v in self.d.items()}
        if any(v < 0 for v in frozen.values()):
            raise NetworkSpecError("GDoF values must be nonnegative")
        object.__setattr__(self, "d", frozen)

    @classmethod
    def zero(cls, net: NetworkSpec) -> "GdofTuple":
        return cls({u: Fraction(0) for u in net.users})

    @classmethod
    def from_values(cls, net: NetworkSpec, values: Sequence[Rational]) -> "GdofTuple":
        """Build from one value per user in canonical (cell, slot) order."""
        users = net.users
        if len(values) != len(users):
            raise NetworkSpecError(f"expected {len(users)} values, got {len(values)}")
        return cls(dict(zip(users, values)))

    def __getitem__(self, user: User) -> Fraction:
        return self.d.get(user, Fraction(0))

    def support(self) -> Subnetwork:
        return frozenset(u for u, v in self.d.items() if v > 0)

    def scaled(self, c: Rational) -> "GdofTuple":
        c = rationalize(c)
        return GdofTuple({u: c * v for u, v in self.d.items()})


@dataclass(frozen=True, eq=False)
class PolyRegion:
    """A polytope of GDoF tuples: 0/1 sum inequalities, nonnegativity, forced zeros.

    Made by ``polyhedral_region`` from its ``source``, the ``(net, order, s)``
    it describes, whose scope ``polyhedral_region`` has checked; everything
    else is derived from it.  ``inequalities`` is built on first access, so
    callers that only optimize over it never pay for the exponential list.
    Regions compare by identity; use ``same_system`` for structural equality.
    """

    source: tuple[NetworkSpec, DecodingOrder, Subnetwork]

    @property
    def dim_users(self) -> tuple[User, ...]:
        """Every user of the network, in canonical order."""
        return self.source[0].users

    @cached_property
    def forced_zero(self) -> frozenset:
        """The users outside the subnetwork."""
        return self.source[0].full_subnetwork - self.source[2]

    @cached_property
    def inequalities(self) -> tuple[LinearInequality, ...]:
        """One inequality per index of ``bound_indices``, in its emission order."""
        net, order, _ = self.source
        den, lv = net.integer_levels
        return tuple(
            LinearInequality(index.users, Fraction(_rhs(lv, index.tops), den))
            for index in _bound_indices(net, order)
        )

    @cached_property
    def flow_network(self):
        """``analysis.flow_network`` of this region, built on the first
        ``max_weighted_gdof`` solve and shared by every later one."""
        from .analysis import flow_network  # analysis imports this module

        return flow_network(self)

    def active_users(self) -> tuple[User, ...]:
        return tuple(u for u in self.dim_users if u not in self.forced_zero)

    def same_system(self, other: "PolyRegion") -> bool:
        """Structural equality: same users, same (support, rhs) list, same zeros."""
        return (
            self.dim_users == other.dim_users
            and self.forced_zero == other.forced_zero
            and [(q.users, q.rhs) for q in self.inequalities]
            == [(q.users, q.rhs) for q in other.inequalities]
        )


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violated: LinearInequality | None = None

    def __bool__(self) -> bool:
        return self.member


class BoundIndex(NamedTuple):
    """One bound of a fixed-order region.

    ``cells`` is one cell (a per-cell bound) or a canonical cyclic sequence
    of two or more cells (a cyclic bound); ``depths[j]`` is the decode depth
    taken in ``cells[j]`` and ``tops[j]`` the user at that depth.  ``users``
    is the union of the per-cell decode prefixes.
    """

    cells: tuple[int, ...]
    depths: tuple[int, ...]
    tops: tuple[User, ...]
    users: frozenset

    @property
    def kind(self) -> str:
        return "cell" if len(self.cells) == 1 else "cyclic"


def bound_indices(
    net: NetworkSpec, order: DecodingOrder, s: Subnetwork | None = None
) -> Iterator[BoundIndex]:
    """The bound index set of the fixed-order region of ``s`` under ``order``.

    One index per active cell and decode depth, then one per cyclic sequence
    of two or more active cells and choice of one depth per cell.  Emission
    order is deterministic: per-cell bounds by (cell, depth), then cyclic
    bounds in ``enumerate_cyclic_sequences`` order (length, cell subset,
    arrangement) and by depth vector.  The scope is checked on the call.
    """
    order.validate(net, s)
    return _bound_indices(net, order)


def _bound_indices(net: NetworkSpec, order: DecodingOrder) -> Iterator[BoundIndex]:
    """``bound_indices`` of an order whose scope is already checked: the
    active users are the slots that ``order`` lists."""
    # (depth, top, prefix) of every decode depth of each cell.
    picks = {}
    for k in range(1, net.cells + 1):
        tops = [User(k, slot) for slot in order.slots(k)]
        picks[k] = [(l, top, frozenset(tops[:l])) for l, top in enumerate(tops, 1)]
    active_cells = [k for k, p in picks.items() if p]
    for k in active_cells:
        for l, top, prefix in picks[k]:
            yield BoundIndex((k,), (l,), (top,), prefix)

    if len(active_cells) >= 2:
        for seq in enumerate_cyclic_sequences(active_cells, min_len=2):
            for choice in itertools.product(*(picks[k] for k in seq)):
                depths, tops, prefixes = zip(*choice)
                yield BoundIndex(seq, depths, tops, frozenset().union(*prefixes))


def _rhs(lv, tops: tuple[User, ...]) -> int:
    """``bound_rhs`` of the bound with these top users, as an integer over
    the denominator of ``lv``, the levels of ``net.integer_levels``."""
    if len(tops) == 1:
        k, l = tops[0]
        return lv[k - 1][l - 1][k - 1]
    total, pred = 0, tops[-1].cell
    for k, l in tops:
        row = lv[k - 1][l - 1]
        total += row[k - 1] - row[pred - 1]
        pred = k
    return total


def bound_rhs(net: NetworkSpec, index: BoundIndex) -> Fraction:
    """Exact rhs of a bound: the top user's direct level for one cell, else
    sum_j (alpha_{i_j i_j} - alpha_{i_j -> i_{j-1}}) at the top users, with
    the predecessor taken around the cycle, summed over the integers of
    ``net.integer_levels`` into one ``Fraction``."""
    den, lv = net.integer_levels
    return Fraction(_rhs(lv, index.tops), den)


def polyhedral_region(
    net: NetworkSpec, order: DecodingOrder, s: Subnetwork | None = None
) -> PolyRegion:
    """Inequality description of the fixed-order achievable region.

    One inequality  sum of d over the index's users <= ``bound_rhs``  per
    index of ``bound_indices``, in its emission order, built on first access
    to ``inequalities``.  Users outside ``s`` are forced to zero.  The
    scope, ``s`` and ``order``, is checked here, once, by
    ``DecodingOrder.validate``; everything built on the region trusts it.
    """
    s = order.validate(net, s)
    return PolyRegion((net, order, s))


def set_function_f(net: NetworkSpec, order: DecodingOrder, subset: Iterable[User]) -> Fraction:
    """Right-hand side of the region bound attached to a decode-prefix user set.

    ``order`` must be a decoding order of ``net`` (of any subnetwork), and
    ``subset`` must be, in every participating cell, exactly the first
    ``l_i`` decode positions of ``order``; anything else is a
    ``NetworkSpecError``.  Returns 0 for the empty set, and otherwise the
    smallest ``bound_rhs`` among the bounds whose user set is ``subset``:
    the depth user's direct level for one cell, the minimum over full-length
    cyclic arrangements of the participating cells otherwise.
    """
    order.validate(net, order.active_users())
    subset = frozenset(map(_user, subset))
    depth = {}
    for k, slots in enumerate(net.active_slots(subset), start=1):
        if slots:
            want = tuple(sorted(order.slots(k)[: len(slots)]))
            if slots != want:
                raise NetworkSpecError(
                    f"subset is not a decode prefix in cell {k}: got slots {list(slots)}, "
                    f"prefix would be {list(want)}"
                )
            depth[k] = len(slots)
    if not depth:
        return Fraction(0)
    # The bounds with user set ``subset`` take every participating cell at its
    # full prefix depth, in each cyclic arrangement of those cells.
    return min(
        bound_rhs(
            net,
            BoundIndex(
                seq,
                tuple(depth[k] for k in seq),
                tuple(order.user_at(k, depth[k]) for k in seq),
                subset,
            ),
        )
        for seq in enumerate_cyclic_sequences(depth, min_len=len(depth))
    )


def membership(region: PolyRegion, d: GdofTuple) -> MembershipResult:
    """Exact membership test; on failure, reports the first violated inequality.

    Nonnegativity is part of the GdofTuple type; forced-zero coordinates are
    checked first, then inequalities in emission order.
    """
    unknown = set(d.d) - set(region.dim_users)
    if unknown:
        raise NetworkSpecError(f"GDoF tuple indexes unknown users {sorted(unknown)}")
    for u in sorted(region.forced_zero):
        if d[u] != 0:
            return MembershipResult(False, LinearInequality(frozenset([u]), Fraction(0)))
    for q in region.inequalities:
        if not q.holds(d):
            return MembershipResult(False, q)
    return MembershipResult(True)
