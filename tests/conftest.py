import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from tin_gdof.errors import NetworkSpecError, TinGdofError, TopologyError
from tin_gdof.model import DecodingOrder, NetworkSpec, User, rationalize
from tin_gdof.regions import BoundIndex, GdofTuple


def pimac(a11_1, a11_2, a22, a12_1, a12_2, a21) -> NetworkSpec:
    """2-cell network: a 2-user cell interfering with a single-user cell."""
    return NetworkSpec.from_alpha(
        2,
        [2, 1],
        {
            (User(1, 1), 1): Fraction(a11_1),
            (User(1, 1), 2): Fraction(a12_1),
            (User(1, 2), 1): Fraction(a11_2),
            (User(1, 2), 2): Fraction(a12_2),
            (User(2, 1), 2): Fraction(a22),
            (User(2, 1), 1): Fraction(a21),
        },
    )


@pytest.fixture
def pimac_nonconvex() -> NetworkSpec:
    """Instance whose region union is not convex; the reversed order matters."""
    return pimac("1.0", "1.2", "1.0", "0.1", "0.5", "0.2")


@pytest.fixture
def pimac_optimal() -> NetworkSpec:
    """Instance satisfying the optimality (hence convexity) conditions."""
    return pimac("1.0", "1.5", "1.0", "0.3", "0.4", "0.2")


@pytest.fixture
def pimac_convex_only() -> NetworkSpec:
    """Instance satisfying the convexity conditions but not the optimality ones."""
    return pimac("1.0", "1.5", "1.0", "0.3", "0.7", "0.2")


# -- reference definitions of the paper --------------------------------------
# The library computes regions and outer bounds through ``bound_indices`` and
# the potential graph; these are the paper's definitions, written directly in
# ``Fraction``s from ``net.alpha`` and ``net.direct``, for the tests to check
# it against.  Each checks its arguments by the library's own public rules.


def bound_rhs(net: NetworkSpec, index: BoundIndex) -> Fraction:
    """Exact rhs of a bound: the top user's direct level for one cell, else
    sum_j (alpha_{i_j i_j} - alpha_{i_j -> i_{j-1}}) at the top users, with
    the predecessor taken around the cycle."""
    if len(index.cells) == 1:
        return net.direct(index.tops[0])
    return sum(
        (net.direct(top) - net.alpha(top, index.cells[j - 1]) for j, top in enumerate(index.tops)),
        Fraction(0),
    )


def set_function_f(net: NetworkSpec, order: DecodingOrder, subset) -> Fraction:
    """The set function f: the rhs attached to a decode-prefix user set.

    ``order`` must be a decoding order of ``net`` (of any subnetwork), and
    ``subset`` must be, in every participating cell, exactly the first
    ``l_i`` decode positions of ``order``; anything else is a
    ``NetworkSpecError``.  Returns 0 for the empty set, and otherwise the
    smallest ``bound_rhs`` over the cyclic arrangements of the participating
    cells, each at its prefix depth (the depth user's direct level for one
    cell).
    """
    order.validate(net, order.active_users())
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
    first, *rest = sorted(depth)
    return min(
        bound_rhs(
            net,
            BoundIndex(
                seq,
                tuple(depth[k] for k in seq),
                tuple(order.user_at(k, depth[k]) for k in seq),
                frozenset(subset),
            ),
        )
        for seq in ((first, *p) for p in itertools.permutations(rest))
    )


@dataclass(frozen=True)
class UserPartition:
    double_primed: frozenset  # slots whose direct level the attenuated top user clears
    primed: frozenset


def outer_bound_user_partition(net: NetworkSpec, i: int, j: int, l_i: int) -> UserPartition:
    """Split slots 1..l_i of cell i by the attenuated top-user level toward cell j.

    A slot s < l_i is double-primed when the top user's direct level minus
    its cross level toward cell j still reaches slot s's direct level.  When
    the optimality conditions hold, the primed slots (top user excluded)
    satisfy the chain inequality the paper's outer-bound derivation relies
    on; this is checked here, and a failure raises ``TinGdofError``.
    """
    if i == j:
        raise TopologyError("partition needs two distinct cells")
    top = User(i, l_i)
    margin = net.direct(top) - net.alpha(top, j)
    double_primed = frozenset(
        s for s in range(1, l_i) if margin >= net.direct(User(i, s))
    )
    primed = frozenset(range(1, l_i + 1)) - double_primed
    if net.optimality_holds:
        chain = sorted(primed - {l_i})
        for s_prime, l_prime in itertools.combinations(chain, 2):
            s_u, l_u = User(i, s_prime), User(i, l_prime)
            if margin < net.direct(s_u) - net.alpha(s_u, j) + net.alpha(l_u, j):
                raise TinGdofError(
                    f"partition chain inequality failed for cell {i} slots "
                    f"({s_prime},{l_prime}) toward cell {j}"
                )
    return UserPartition(double_primed, primed)


def scaled_network(net: NetworkSpec, c) -> NetworkSpec:
    """The network with every strength level multiplied by ``c`` (c > 0)."""
    c = rationalize(c)
    if c <= 0:
        raise NetworkSpecError("scale factor must be positive")
    levels = [[[c.numerator * v for v in row] for row in cell] for cell in net.levels]
    return NetworkSpec(net.den * c.denominator, levels, net.slot_provenance)


def scaled_tuple(d: GdofTuple, c) -> GdofTuple:
    """The GDoF tuple with every value multiplied by ``c``."""
    c = rationalize(c)
    return GdofTuple({u: c * v for u, v in d.d.items()})
