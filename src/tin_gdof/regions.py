"""Polyhedral achievable-region machinery.

The achievable GDoF region of a fixed decoding order is a polytope: per-cell
prefix bounds plus one bound per cyclic sequence of cells and per choice of
decode-depth in each participating cell.  This module enumerates that bound
index set in one place (``bound_indices``), and maps it to the explicit
inequality list and to the associated set function.  It also tests
membership of GDoF tuples with exact rational arithmetic.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import NetworkSpecError
from .model import DecodingOrder, NetworkSpec, Rational, Subnetwork, User, rationalize


@dataclass(frozen=True)
class CyclicSequence:
    """An ordered tuple of distinct cells, identified up to rotation.

    Canonical form: rotated so the smallest cell comes first.  Two sequences
    compare equal iff they are rotations of each other.
    """

    cells: tuple[int, ...]

    def __post_init__(self):
        cells = tuple(self.cells)
        if len(set(cells)) != len(cells) or not cells:
            raise ValueError(f"cyclic sequence needs distinct, nonempty cells: {cells}")
        k = cells.index(min(cells))
        object.__setattr__(self, "cells", cells[k:] + cells[:k])

    def __len__(self) -> int:
        return len(self.cells)


def enumerate_cyclic_sequences(cells: Iterable[int], min_len: int = 1) -> Iterator[CyclicSequence]:
    """All cyclic sequences over nonempty subsets of ``cells`` with length >= min_len.

    Each sequence appears exactly once, in canonical form, ordered by
    (length, subset, arrangement).  The count for n cells and min_len=1 is
    sum_m C(n,m)*(m-1)!.
    """
    cells = sorted(set(cells))
    if not cells:
        raise ValueError("cell set must be nonempty")
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    for m in range(min_len, len(cells) + 1):
        for subset in itertools.combinations(cells, m):
            anchor, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                yield CyclicSequence((anchor,) + perm)


@dataclass(frozen=True)
class LinearInequality:
    """sum of d over ``users`` <= ``rhs`` (all coefficients are 0 or 1)."""

    users: frozenset
    rhs: Fraction

    def __post_init__(self):
        if not self.users:
            raise ValueError("inequality needs at least one user")

    def evaluate(self, d: "GdofTuple") -> Fraction:
        return sum((d[u] for u in self.users), Fraction(0))

    def holds(self, d: "GdofTuple") -> bool:
        return self.evaluate(d) <= self.rhs


@dataclass(frozen=True)
class GdofTuple:
    """One nonnegative GDoF value per user."""

    d: Mapping

    def __post_init__(self):
        frozen = {User(*u): Fraction(v) for u, v in self.d.items()}
        if any(v < 0 for v in frozen.values()):
            raise ValueError("GDoF values must be nonnegative")
        object.__setattr__(self, "d", frozen)

    @classmethod
    def zero(cls, net: NetworkSpec) -> "GdofTuple":
        return cls({u: Fraction(0) for u in net.users})

    @classmethod
    def from_values(cls, net: NetworkSpec, values: Sequence[Rational]) -> "GdofTuple":
        """Build from one value per user in canonical (cell, slot) order."""
        users = net.users
        if len(values) != len(users):
            raise ValueError(f"expected {len(users)} values, got {len(values)}")
        return cls({u: rationalize(v) for u, v in zip(users, values)})

    def __getitem__(self, user: User) -> Fraction:
        return self.d.get(user, Fraction(0))

    def support(self) -> Subnetwork:
        return frozenset(u for u, v in self.d.items() if v > 0)

    def scaled(self, c: Rational) -> "GdofTuple":
        c = Fraction(c)
        return GdofTuple({u: c * v for u, v in self.d.items()})


@dataclass(frozen=True, eq=False)
class PolyRegion:
    """A polytope of GDoF tuples: 0/1 sum inequalities, nonnegativity, forced zeros.

    Made by ``polyhedral_region`` from its ``source``, the ``(net, order, s)``
    it describes; ``inequalities`` is built on first access, so callers that
    only optimize over it never pay for the exponential list.  Regions
    compare by identity; use ``same_system`` for structural equality.
    """

    dim_users: tuple[User, ...]
    forced_zero: frozenset
    source: tuple[NetworkSpec, DecodingOrder, Subnetwork]

    @cached_property
    def inequalities(self) -> tuple[LinearInequality, ...]:
        """One inequality per index of ``bound_indices``, in its emission order."""
        net, order, s = self.source
        return tuple(
            LinearInequality(index.users, bound_rhs(net, index))
            for index in bound_indices(net, order, s)
        )

    @cached_property
    def flow_network(self):
        """``analysis.flow_network`` of the source, built on the first
        ``max_weighted_gdof`` solve and shared by every later one."""
        from .analysis import flow_network  # analysis imports this module

        return flow_network(*self.source)

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


def _active_per_cell(net: NetworkSpec, s: Subnetwork) -> dict[int, list[int]]:
    per_cell: dict[int, list[int]] = {}
    for u in sorted(s):
        per_cell.setdefault(u.cell, []).append(u.slot)
    return per_cell


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
    arrangement) and by depth vector.
    """
    order.validate(net, s)
    tops = {k: [User(k, slot) for slot in order.slots(k)] for k in range(1, net.cells + 1)}
    prefixes = {k: [frozenset(t[:l]) for l in range(1, len(t) + 1)] for k, t in tops.items()}
    active_cells = [k for k, t in tops.items() if t]
    for k in active_cells:
        for l, top in enumerate(tops[k], start=1):
            yield BoundIndex((k,), (l,), (top,), prefixes[k][l - 1])

    if len(active_cells) >= 2:
        for seq in enumerate_cyclic_sequences(active_cells, min_len=2):
            for depths in itertools.product(*(range(1, len(tops[k]) + 1) for k in seq.cells)):
                picks = list(zip(seq.cells, depths))
                yield BoundIndex(
                    seq.cells,
                    depths,
                    tuple(tops[k][l - 1] for k, l in picks),
                    frozenset().union(*(prefixes[k][l - 1] for k, l in picks)),
                )


def bound_rhs(net: NetworkSpec, index: BoundIndex) -> Fraction:
    """Exact rhs of a bound: the top user's direct level for one cell, else
    sum_j (alpha_{i_j i_j} - alpha_{i_j -> i_{j-1}}) at the top users, with
    the predecessor taken around the cycle."""
    if len(index.cells) == 1:
        return net.direct(index.tops[0])
    rhs = Fraction(0)
    for j, top in enumerate(index.tops):
        rhs += net.direct(top) - net.alpha(top, index.cells[j - 1])
    return rhs


def polyhedral_region(
    net: NetworkSpec, order: DecodingOrder, s: Subnetwork | None = None
) -> PolyRegion:
    """Inequality description of the fixed-order achievable region.

    One inequality  sum of d over the index's users <= ``bound_rhs``  per
    index of ``bound_indices``, in its emission order, built on first access
    to ``inequalities``.  Users outside ``s`` are forced to zero.  ``s`` and
    ``order`` are validated here.
    """
    s = net.full_subnetwork if s is None else net.validate_subnetwork(s)
    order.validate(net, s)
    return PolyRegion(net.users, frozenset(net.full_subnetwork - s), (net, order, s))


def set_function_f(net: NetworkSpec, order: DecodingOrder, subset: Iterable[User]) -> Fraction:
    """Right-hand side of the region bound attached to a decode-prefix user set.

    ``subset`` must be, in every participating cell, exactly the first
    ``l_i`` decode positions of ``order``.  Returns 0 for the empty set, and
    otherwise the smallest ``bound_rhs`` among the bounds whose user set is
    ``subset``: the depth user's direct level for one cell, the minimum over
    full-length cyclic arrangements of the participating cells otherwise.
    """
    subset = frozenset(User(*u) for u in subset)
    if not subset:
        return Fraction(0)
    per_cell = _active_per_cell(net, subset)
    for cell, slots in per_cell.items():
        want = sorted(order.slots(cell)[: len(slots)])
        if sorted(slots) != want:
            raise NetworkSpecError(
                f"subset is not a decode prefix in cell {cell}: got slots {sorted(slots)}, "
                f"prefix would be {want}"
            )
    # The bounds with user set ``subset`` take every participating cell at its
    # full prefix depth, in each cyclic arrangement of those cells.
    depth = {k: len(slots) for k, slots in per_cell.items()}
    return min(
        bound_rhs(
            net,
            BoundIndex(
                seq.cells,
                tuple(depth[k] for k in seq.cells),
                tuple(order.user_at(k, depth[k]) for k in seq.cells),
                subset,
            ),
        )
        for seq in enumerate_cyclic_sequences(per_cell, min_len=len(per_cell))
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
