"""Network data model for uplink cells with strength-level (GDoF) channel descriptions.

A network is a set of cells, each with one receiver and several transmitters
(users).  Every link carries a nonnegative *strength level*: the high-SNR
exponent of the link power normalized by a nominal power ``P``.  A network
stores its levels as integers over one common denominator, so that region
computations and condition checks run on exact integer sums.

All types in this module are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import numbers
import operator
import warnings
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import NetworkSpecError

#: Number of decimal digits kept when turning a float into an exact rational.
RATIONALIZE_DIGITS = 9

Rational = Union[Fraction, int]


class User(NamedTuple):
    """A transmitter, identified by its cell and its in-cell slot (both 1-based)."""

    cell: int
    slot: int

    def __repr__(self) -> str:  # compact, e.g. u(1,2)
        return f"u({self.cell},{self.slot})"


#: A subnetwork is just the set of active users.
Subnetwork = frozenset


def _user(key) -> User:
    """The ``User`` that a user key names: a pair of ints, or of values that
    ``operator.index`` accepts, bools excluded.  The one rule for user keys;
    any other key is a ``NetworkSpecError``.  A ``User`` of two ints, such
    as every key that already passed the rule, is its own answer."""
    if type(key) is User and type(key[0]) is int and type(key[1]) is int:
        return key
    try:
        k, l = key
        return User(_index(k, "cell"), _index(l, "slot"))
    except (TypeError, ValueError):
        raise NetworkSpecError(f"user key {key!r} is not a (cell, slot) pair of ints") from None


def _users(keys, what: str) -> Iterator[User]:
    """Each key of a collection of users through the user-key rule; a
    non-collection is a ``NetworkSpecError`` naming ``what``."""
    try:
        return map(_user, iter(keys))
    except TypeError:
        raise NetworkSpecError(f"{what} must be a collection of users, got {keys!r}") from None


def _items(mapping, what: str):
    """The items of a mapping argument; a non-mapping is a
    ``NetworkSpecError`` naming ``what``."""
    try:
        return mapping.items()
    except AttributeError:
        raise NetworkSpecError(f"{what} must be a mapping, got {type(mapping).__name__}") from None


def _per_user(mapping, what: str) -> dict[User, Fraction]:
    """A per-user argument (GDoF values, power exponents, weights) through
    the user-key rule and ``rationalize``."""
    return {_user(u): rationalize(v) for u, v in _items(mapping, what)}


def _link(key, what: str) -> tuple[User, int]:
    """The ``(user, receiver cell)`` that a link key names, through the
    user-key and count rules; a key that is not such a pair is a
    ``NetworkSpecError`` naming ``what``."""
    try:
        user, rx = key
    except (TypeError, ValueError):
        raise NetworkSpecError(f"{what} key {key!r} is not a (user, receiver cell) pair") from None
    return _user(user), _index(rx, "receiver cell")


def _index(value, what: str) -> int:
    """``value`` as an int under ``operator.index``, bools excluded (a JSON
    ``true`` is not the number 1): the one rule for counts and indices, and
    for the fields of user keys.  A bool, a float, even ``2.0``, a string or
    ``None`` is a ``NetworkSpecError`` that names ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise NetworkSpecError(f"{what} must be an integer, got {value!r}")


def _float(value) -> float:
    """``float(value)``, bools excluded (a JSON ``true`` is not the number
    1.0): the one reading of a float from a file or an argument.  A bool is
    a ``TypeError``, like anything else ``float`` refuses."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not a number")
    return float(value)


def _real(value, what: str) -> float:
    """``value`` as a finite float: the one rule for real parameters such as
    a site radius or a nominal power.  Whatever ``_float`` accepts and turns
    into a finite number passes; anything else is a ``NetworkSpecError``
    that names ``what``."""
    try:
        x = _float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise NetworkSpecError(
            f"{what} must be a finite number within the float range, got {value!r}"
        )
    return x


def rationalize(x) -> Fraction:
    """``x`` as an exact rational: the one rule for exact values (levels,
    GDoF values, power exponents, weights, inequality right-hand sides).

    Ints, ``Fraction``s and other rationals (numpy ints), decimal strings
    such as ``"0.1"`` or ``"1/3"`` and ``Decimal``s convert exactly.  A
    finite float is rounded to the nearest multiple of 10^-RATIONALIZE_DIGITS,
    so ``0.1`` means 1/10, not its binary expansion.  Anything else, NaN,
    infinities and bools included, is a ``NetworkSpecError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if math.isfinite(x):
            scale = 10**RATIONALIZE_DIGITS
            try:
                return Fraction(round(x * scale), scale)
            except OverflowError:  # x * scale is inf, so x is an integer already
                return Fraction(x)
    elif isinstance(x, (numbers.Rational, Decimal, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise NetworkSpecError(f"{x!r} is not an exact number or a finite float")


@dataclass(frozen=True)
class NetworkSpec:
    """Cell/user topology plus the full strength-level matrix, as integers
    over one common denominator.

    ``levels[k-1][l-1][i-1] / den`` is the level of the link from slot ``l``
    of cell ``k`` to the receiver of cell ``i``.  The constructor is the one
    check of the table: every level is an int >= 0, every cell has at least
    one slot and every slot one level per receiver, direct levels ascend
    within each cell (ties allowed), and each cell's ``slot_provenance`` is
    a permutation of its slots.  ``den`` is reduced by the gcd of the table,
    so equal networks compare and hash equal.  ``from_alpha`` builds a
    network from rational levels in any slot order.
    """

    den: int
    levels: tuple[tuple[tuple[int, ...], ...], ...]
    #: per cell, ``slot_provenance[i-1][s-1]`` is the input slot stored as slot ``s``
    slot_provenance: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        den = _index(self.den, "den")
        if den < 1:
            raise NetworkSpecError(f"den must be >= 1, got {den}")
        try:
            table = [[tuple(row) for row in rows] for rows in self.levels]
            origins = [
                tuple(_index(s, "slot_provenance entry") for s in slots)
                for slots in self.slot_provenance
            ]
        except TypeError:
            raise NetworkSpecError(
                "levels and slot_provenance must be nested sequences per cell and slot"
            ) from None
        cells = len(table)
        if cells < 1:
            raise NetworkSpecError("network needs at least one cell")
        if len(origins) != cells:
            raise NetworkSpecError(f"slot_provenance has {len(origins)} entries for {cells} cells")
        for k, (rows, origin) in enumerate(zip(table, origins), start=1):
            if not rows:
                raise NetworkSpecError(f"cell {k} has no slots")
            for l, row in enumerate(rows, start=1):
                if len(row) != cells:
                    raise NetworkSpecError(
                        f"slot {User(k, l)} has {len(row)} receiver levels for {cells} cells"
                    )
                for i, v in enumerate(row, start=1):
                    if type(v) is not int or v < 0:
                        what = f"level of link {User(k, l)}->rx{i}"
                        if _index(v, what) < 0:
                            raise NetworkSpecError(f"{what} must be >= 0, got {v}")
            if any(a[k - 1] > b[k - 1] for a, b in zip(rows, rows[1:])):
                raise NetworkSpecError(f"direct levels of cell {k} do not ascend")
            if sorted(origin) != list(range(1, len(rows) + 1)):
                raise NetworkSpecError(
                    f"slot_provenance of cell {k} is not a permutation of its slots: {origin}"
                )
        g = math.gcd(den, *(v for rows in table for row in rows for v in row))
        levels = tuple(tuple(tuple(int(v) // g for v in row) for row in rows) for rows in table)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "slot_provenance", tuple(origins))

    @classmethod
    def from_alpha(
        cls,
        cells: int,
        users_per_cell: Sequence[int],
        alpha: Mapping[tuple[User, int], Rational],
    ) -> "NetworkSpec":
        """Validate, clip, sort and freeze a raw strength-level assignment.

        Counts and receiver cells go through the count rule (``_index``),
        levels through ``rationalize``."""
        cells = _index(cells, "cells")
        if cells < 1:
            raise NetworkSpecError("network needs at least one cell")
        try:
            users_per_cell = tuple(_index(n, "users_per_cell entry") for n in users_per_cell)
        except TypeError:
            raise NetworkSpecError(
                f"users_per_cell must be a sequence of counts, got {users_per_cell!r}"
            ) from None
        if len(users_per_cell) != cells:
            raise NetworkSpecError(
                f"users_per_cell has {len(users_per_cell)} entries for {cells} cells"
            )
        if any(n < 1 for n in users_per_cell):
            raise NetworkSpecError("every cell needs at least one user")

        # levels[k-1][l-1][i-1]: the cleaned level of link (User(k, l), i)
        levels = [[[None] * cells for _ in range(n)] for n in users_per_cell]
        cell_ids = range(1, cells + 1)
        filled = 0  # distinct keys of a mapping name distinct links
        for key, value in _items(alpha, "alpha"):
            user, rx = _link(key, "alpha")
            k, l = user
            if not (
                k in cell_ids
                and rx in cell_ids
                and l in range(1, users_per_cell[k - 1] + 1)
            ):
                raise NetworkSpecError(f"alpha entry for unknown link {user}->rx{rx}")
            try:
                v = rationalize(value)
            except NetworkSpecError as exc:
                raise NetworkSpecError(f"alpha entry for link {user}->rx{rx}: {exc}") from None
            if v.numerator < 0:
                warnings.warn(
                    f"negative strength level {v} on link {user}->rx{rx} clipped to 0",
                    stacklevel=2,
                )
                v = Fraction(0)
            levels[k - 1][l - 1][rx - 1] = v
            filled += 1
        missing = cells * sum(users_per_cell) - filled
        if missing:
            k, l, i = next(
                (k, l, i)
                for k, rows in enumerate(levels, start=1)
                for l, row in enumerate(rows, start=1)
                for i, v in enumerate(row, start=1)
                if v is None
            )
            raise NetworkSpecError(
                f"missing alpha entry for link {User(k, l)}->rx{i} "
                f"({missing} missing in total)"
            )

        # Every level over the common denominator; slots relabelled so direct
        # levels ascend in every cell (stable).
        den = math.lcm(*(v.denominator for rows in levels for row in rows for v in row))
        table, provenance = [], []
        for k, rows in enumerate(levels, start=1):
            slots = sorted(range(len(rows)), key=lambda l: rows[l][k - 1])
            provenance.append(tuple(l + 1 for l in slots))
            table.append(
                tuple(tuple(v.numerator * (den // v.denominator) for v in rows[l]) for l in slots)
            )
        return cls(den, tuple(table), tuple(provenance))

    # -- accessors ---------------------------------------------------------

    def alpha(self, user: User, rx_cell: int) -> Fraction:
        """Strength level of the link from ``user`` to the receiver of ``rx_cell``;
        a link the network does not have is a ``NetworkSpecError``."""
        k, l = user
        if k > 0 and l > 0 and rx_cell > 0:
            try:
                return Fraction(self.levels[k - 1][l - 1][rx_cell - 1], self.den)
            except IndexError:
                pass
        raise NetworkSpecError(f"unknown link {user}->rx{rx_cell}")

    def direct(self, user: User) -> Fraction:
        return self.alpha(user, user.cell)

    @cached_property
    def _condition_flags(self) -> tuple[bool, bool]:
        from .conditions import condition_flags  # conditions imports this module

        return condition_flags(self.levels)

    @property
    def convexity_holds(self) -> bool:
        """Whether the convexity conditions hold: checked once, on first access."""
        return self._condition_flags[0]

    @property
    def optimality_holds(self) -> bool:
        """Whether the optimality conditions hold, from the same pass."""
        return self._condition_flags[1]

    @cached_property
    def users_per_cell(self) -> tuple[int, ...]:
        return tuple(map(len, self.levels))

    @cached_property
    def cells(self) -> int:
        return len(self.levels)

    @cached_property
    def users(self) -> tuple[User, ...]:
        """All users, in canonical (cell, slot) order."""
        return tuple(
            User(k, l) for k, n in enumerate(self.users_per_cell, 1) for l in range(1, n + 1)
        )

    @cached_property
    def full_subnetwork(self) -> Subnetwork:
        return frozenset(self.users)

    def active_slots(self, s: Iterable[User] | None = None) -> tuple[tuple[int, ...], ...]:
        """Per cell, the ascending slots of the users of ``s`` (of every user
        when ``s`` is None), found in one pass over ``s``.

        The one place that splits a subnetwork by cell and checks that its
        users exist.  Keys go through the user-key rule; a key that is not a
        pair of ints, or an unknown user, is a ``NetworkSpecError``.
        """
        if s is None:
            return tuple(tuple(range(1, n + 1)) for n in self.users_per_cell)
        per_cell = [set() for _ in self.users_per_cell]
        unknown = set()
        for user in _users(s, "subnetwork"):
            k, l = user
            if 1 <= k <= self.cells and 1 <= l <= self.users_per_cell[k - 1]:
                per_cell[k - 1].add(l)
            else:
                unknown.add(user)
        if unknown:
            raise NetworkSpecError(f"subnetwork contains unknown users {sorted(unknown)}")
        return tuple(tuple(sorted(slots)) for slots in per_cell)


@dataclass(frozen=True)
class DecodingOrder:
    """One successive-decoding order per cell.

    ``per_cell[i-1]`` lists the slots of cell ``i`` by decode position:
    position 1 is decoded last, the final position is decoded (and cancelled)
    first.  For a subnetwork, each tuple ranges over the active slots of that
    cell only (``NetworkSpec.active_slots``); cells with no active user carry
    an empty tuple.
    """

    per_cell: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, net: NetworkSpec, s: Subnetwork | None = None) -> "DecodingOrder":
        """The order with ascending slots in every cell (weakest decoded last)."""
        return cls(net.active_slots(s))

    def slots(self, cell: int) -> tuple[int, ...]:
        return self.per_cell[cell - 1]

    def user_at(self, cell: int, position: int) -> User:
        """User of ``cell`` at 1-based decode position ``position``."""
        return User(cell, self.per_cell[cell - 1][position - 1])

    def active_users(self) -> frozenset:
        return frozenset(
            User(k, l) for k, slots in enumerate(self.per_cell, start=1) for l in slots
        )

    def validate(self, net: NetworkSpec, s: Iterable[User] | None = None) -> Subnetwork:
        """The scope check: that this is a decoding order of the subnetwork
        ``s`` of ``net`` (of every user when ``s`` is None).  Returns ``s``
        as a frozenset of ``User``s, which what is built on it trusts.  A
        bad user key, an unknown user, a wrong cell count, an order that
        is not one sequence of slots per cell or a cell that does not list
        its active slots is a ``NetworkSpecError``."""
        active = net.active_slots(s)
        try:
            listed = [
                tuple(sorted(_user((k, l)).slot for l in slots))
                for k, slots in enumerate(self.per_cell, start=1)
            ]
        except TypeError:
            raise NetworkSpecError(
                f"decoding order must be one sequence of slots per cell, got {self.per_cell!r}"
            ) from None
        if len(listed) != net.cells:
            raise NetworkSpecError("decoding order has wrong number of cells")
        for k, (slots, want) in enumerate(zip(listed, active), start=1):
            if slots != want:
                raise NetworkSpecError(
                    f"decoding order for cell {k} is not a permutation of active slots {list(want)}"
                )
        return net.full_subnetwork if s is None else self.active_users()


def enumerate_orders(net: NetworkSpec, s: Subnetwork | None = None) -> Iterator[DecodingOrder]:
    """Yield the decoding orders of the subnetwork ``s``, each exactly once.

    Orders differing only on inactive users are not distinguished, so exactly
    prod_i |S_i|! orders are produced.  Deterministic order: the permutations
    of each cell's ``active_slots`` in lexicographic order, combined
    cell-by-cell.
    """
    for combo in itertools.product(*map(itertools.permutations, net.active_slots(s))):
        yield DecodingOrder(combo)


@dataclass(frozen=True)
class FiniteSnrSpec:
    """Finite-SNR channel description: a nominal power and one power per link.

    ``link_powers[(user, rx_cell)]`` is the power ``|h|^2 * P_tx`` of a link,
    all that its level, rates and rate bounds read of it.  Keys go through
    the user-key and count rules, with every index at least 1; there is at
    least one power, and each is a finite number >= 0.  ``nominal_power`` is
    finite and exceeds 1.
    """

    nominal_power: float
    link_powers: Mapping[tuple[User, int], float]

    def __post_init__(self):
        object.__setattr__(self, "nominal_power", _nominal_power(self.nominal_power))
        powers = {}
        for key, value in _items(self.link_powers, "link_powers"):
            user, rx = link = _link(key, "link_powers")
            if min(*user, rx) < 1:
                raise NetworkSpecError(f"link {user}->rx{rx} has an index below 1")
            what = f"power of link {user}->rx{rx}"
            power = _real(value, what)
            if power < 0:
                raise NetworkSpecError(f"{what} must be >= 0, got {value!r}")
            powers[link] = power
        if not powers:
            raise NetworkSpecError("finite-SNR description has no link powers")
        object.__setattr__(self, "link_powers", powers)

    @cached_property
    def levels(self) -> tuple[NetworkSpec, "FiniteSnrSpec"]:
        """The level network, derived once, plus this description relabelled
        to its slot order, which rate computations index users by.  A
        description built from a network (``sampling.finite_snr_from_network``)
        keeps that exact network instead."""
        net = strength_levels(self)
        powers = {
            (User(k, new), i): self.link_powers[(User(k, slot), i)]
            for k, slots in enumerate(net.slot_provenance, start=1)
            for new, slot in enumerate(slots, start=1)
            for i in range(1, net.cells + 1)
        }
        return net, _with_levels(FiniteSnrSpec(self.nominal_power, powers), net)

    def link_power(self, user: User, rx_cell: int) -> float:
        """|h|^2 * P_tx of a link, the quantity whose exponent is the level."""
        return self.link_powers[(user, rx_cell)]

    def clipped_link_power(self, user: User, rx_cell: int) -> float:
        return max(1.0, self.link_power(user, rx_cell))


def _link_power(user: User, rx_cell: int, h, p_tx: float) -> float:
    """``|h|^2 * p_tx``, the power of a link of gain ``h`` at power budget
    ``p_tx``: the one place where a gain and a budget become a link power.
    Beyond the float range, a ``NetworkSpecError`` that names the link.

    With eps = 2^-52, the result is within a relative 4.5 eps + O(eps^2) of
    the power as written in a file: eps / 2 in each gain part and in
    ``p_tx``, read from decimal (1.5 eps in all); eps in ``abs(h)``, a hypot
    within 1 ulp, which the square doubles; eps / 2 in each product.
    """
    try:
        power = abs(h) ** 2 * p_tx
    except OverflowError:
        power = math.inf
    if power == math.inf:
        raise NetworkSpecError(f"link {user}->rx{rx_cell} has a power beyond the float range")
    return power


def _nominal_power(p) -> float:
    """``p`` under the real-parameter rule (``_real``), and above 1 so that
    the level normalization is well defined."""
    x = _real(p, "nominal power")
    if not x > 1:
        raise NetworkSpecError(f"nominal power must exceed 1, got {p!r}")
    return x


def _with_levels(fs: FiniteSnrSpec, net: NetworkSpec) -> FiniteSnrSpec:
    """Record ``net`` as the level network of ``fs``, whose users are already
    labelled in ``net``'s slot order, so that ``fs.levels`` is ``(net, fs)``."""
    fs.__dict__["levels"] = (net, fs)
    return fs


def strength_levels(fs: FiniteSnrSpec) -> NetworkSpec:
    """Strength-level network of a finite-SNR description.

    Level of each link: log(max(1, |h|^2 P_tx)) / log(P), rationalized and
    slot-sorted.  ``FiniteSnrSpec`` has checked the powers and P.
    """
    links = fs.link_powers
    cells = max(rx for (_, rx) in links)
    users_per_cell = [
        max((u.slot for (u, _) in links if u.cell == k), default=0) for k in range(1, cells + 1)
    ]
    log_p = math.log(fs.nominal_power)
    alpha = {link: rationalize(math.log(fs.clipped_link_power(*link)) / log_p) for link in links}
    return NetworkSpec.from_alpha(cells, users_per_cell, alpha)


# -- network files ----------------------------------------------------------


def _parse_link_records(records, what: str) -> dict:
    if not isinstance(records, list):
        raise NetworkSpecError(f"{what}: expected a list of link records")
    out = {}
    for idx, rec in enumerate(records):
        try:
            key = (_user((rec["tx_cell"], rec["tx_slot"])), _index(rec["rx_cell"], "rx_cell"))
            value = rec["value"]
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkSpecError(f"{what}[{idx}]: malformed record ({exc})") from exc
        if key in out:
            raise NetworkSpecError(f"{what}[{idx}]: duplicate entry for {key}")
        out[key] = value
    return out


def _read_document(path) -> tuple[object, str]:
    """The parsed JSON of a network file, with decimal literals as exact
    rationals, and the file name that error messages use."""
    path = Path(path)
    try:
        with path.open() as f:
            return json.load(f, parse_float=Fraction), str(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkSpecError(f"{path}: cannot parse network file ({exc})") from exc


def load_network(path) -> NetworkSpec:
    """Load and validate a network file (see docs/cli.md for the schema).

    Decimal literals in the file are parsed exactly as rationals.
    """
    return network_from_document(*_read_document(path))


def network_from_document(doc: Mapping, where: str = "<document>") -> NetworkSpec:
    try:
        cells, users_per_cell, alpha_records = doc["cells"], doc["users_per_cell"], doc["alpha"]
    except (KeyError, TypeError) as exc:
        raise NetworkSpecError(f"{where}: missing or malformed field ({exc})") from exc
    alpha = _parse_link_records(alpha_records, f"{where}:alpha")
    return NetworkSpec.from_alpha(cells, users_per_cell, alpha)


def load_finite_snr(path) -> FiniteSnrSpec:
    """Load the finite-SNR block of a network file; a file without one is an error."""
    fs = finite_snr_from_document(*_read_document(path))
    if fs is None:
        raise NetworkSpecError(f"{Path(path)}: file has no finite_snr block")
    return fs


def finite_snr_from_document(doc: Mapping, where: str = "<document>") -> FiniteSnrSpec | None:
    """The optional finite-SNR block of a network document, or ``None``
    when it has none.  A malformed block is an error."""
    if not isinstance(doc, dict):
        raise NetworkSpecError(f"{where}: network file must hold a JSON object")
    block = doc.get("finite_snr")
    if block is None:
        return None
    try:
        p, gains_rec, power_rec = block["nominal_power"], block["gains"], block["tx_powers"]
    except (KeyError, TypeError) as exc:
        raise NetworkSpecError(f"{where}: malformed finite_snr block ({exc})") from exc

    gains = _parse_link_records(gains_rec, f"{where}: gains")
    if not gains:
        raise NetworkSpecError(f"{where}: finite_snr block has no gains")
    if not isinstance(power_rec, list):
        raise NetworkSpecError(f"{where}: tx_powers must be a list")
    linked = {u for (u, _) in gains}
    budgets = {}
    for idx, rec in enumerate(power_rec):
        try:
            user, p_tx = _user((rec["cell"], rec["slot"])), _float(rec["value"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise NetworkSpecError(f"{where}: tx_powers[{idx}] malformed ({exc})") from exc
        if user in budgets:
            raise NetworkSpecError(f"{where}: tx_powers[{idx}]: duplicate entry for {user}")
        if not p_tx > 0:
            raise NetworkSpecError(
                f"{where}: tx_powers[{idx}]: power budget of {user} must be positive, got {p_tx!r}"
            )
        if user not in linked:
            raise NetworkSpecError(f"{where}: tx_powers[{idx}]: no gain names user {user}")
        budgets[user] = p_tx
    powers = {}
    # The records are distinct, so the mapping holds them in record order.
    for idx, ((user, rx), v) in enumerate(gains.items()):
        parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)  # [re, im]
        try:
            h = complex(*map(_float, parts))
        except (TypeError, ValueError, OverflowError) as exc:
            raise NetworkSpecError(
                f"{where}: gain of link {user}->rx{rx} is not a number ({exc})"
            ) from exc
        if cmath.isnan(h):
            raise NetworkSpecError(f"{where}: gain of link {user}->rx{rx} is NaN")
        if user not in budgets:
            raise NetworkSpecError(f"{where}: gains[{idx}]: no power budget for user {user}")
        try:
            powers[(user, rx)] = _link_power(user, rx, h, budgets[user])
        except NetworkSpecError as exc:
            raise NetworkSpecError(f"{where}: {exc}") from None
    return FiniteSnrSpec(p, powers)
