"""Network data model for uplink cells with strength-level (GDoF) channel descriptions.

A network is a set of cells, each with one receiver and several transmitters
(users).  Every link carries a nonnegative *strength level*: the high-SNR
exponent of the link power normalized by a nominal power ``P``.  All levels
are stored as exact rationals so that downstream region computations can use
exact arithmetic.

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
    ``operator.index`` accepts.  The one rule for user keys; any other key
    is a ``NetworkSpecError``."""
    try:
        k, l = key
        return User(operator.index(k), operator.index(l))
    except (TypeError, ValueError):
        raise NetworkSpecError(f"user key {key!r} is not a (cell, slot) pair of ints") from None


def _index(value, what: str) -> int:
    """``value`` as an int under ``operator.index``, the user-key rule: the
    one rule for counts and indices.  A float, even ``2.0``, a string or
    ``None`` is a ``NetworkSpecError`` that names ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise NetworkSpecError(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str) -> float:
    """``value`` as a finite float: the one rule for real parameters such as
    a site radius or a nominal power.  Whatever ``float`` accepts and turns
    into a finite number passes; anything else is a ``NetworkSpecError``
    that names ``what``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise NetworkSpecError(
            f"{what} must be a finite number within the float range, got {value!r}"
        )
    return x


def rationalize(x) -> Fraction:
    """``x`` as an exact rational: the one rule for exact values (levels,
    GDoF values, power exponents, weights, scale factors, inequality
    right-hand sides).

    Ints, ``Fraction``s and other rationals (numpy ints), decimal strings
    such as ``"0.1"`` or ``"1/3"`` and ``Decimal``s convert exactly.  A
    finite float is rounded to the nearest multiple of 10^-RATIONALIZE_DIGITS,
    so ``0.1`` means 1/10, not its binary expansion.  Anything else, NaN and
    infinities included, is a ``NetworkSpecError``.
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
    elif isinstance(x, (numbers.Rational, Decimal, str)):
        try:
            return Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise NetworkSpecError(f"{x!r} is not an exact number or a finite float")


@dataclass(frozen=True)
class NetworkSpec:
    """Cell/user topology plus the full strength-level matrix.

    ``alpha[(user, rx_cell)]`` is the level of the link from ``user`` to the
    receiver of ``rx_cell``.  Invariants enforced at construction:

    * all levels are >= 0 (negative inputs are clipped to 0 with a warning),
    * within each cell, users are labelled so direct levels are ascending
      (ties keep input order); the applied relabelling is recorded in
      ``slot_provenance``.
    """

    users_per_cell: tuple[int, ...]
    alpha_map: Mapping[tuple[User, int], Fraction]
    #: per cell, ``slot_provenance[i-1][s-1]`` is the input slot stored as slot ``s``
    slot_provenance: tuple[tuple[int, ...], ...]

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
        try:
            entries = alpha.items()
        except AttributeError:
            raise NetworkSpecError(
                f"alpha must be a mapping of (user, receiver cell) keys to levels, "
                f"got {type(alpha).__name__}"
            ) from None
        for key, value in entries:
            try:
                user, rx = key
            except (TypeError, ValueError):
                raise NetworkSpecError(
                    f"alpha key {key!r} is not a (user, receiver cell) pair"
                ) from None
            k, l = user = _user(user)
            rx = _index(rx, "receiver cell")
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

        # Relabel slots so direct levels are ascending in every cell (stable).
        provenance = []
        sorted_alpha: dict[tuple[User, int], Fraction] = {}
        for k, rows in enumerate(levels, start=1):
            slots = sorted(range(len(rows)), key=lambda l: rows[l][k - 1])
            provenance.append(tuple(l + 1 for l in slots))
            for new_slot, old in enumerate(slots, start=1):
                user = User(k, new_slot)
                for i, v in enumerate(rows[old], start=1):
                    sorted_alpha[(user, i)] = v

        return cls(users_per_cell, sorted_alpha, tuple(provenance))

    # -- accessors ---------------------------------------------------------

    def alpha(self, user: User, rx_cell: int) -> Fraction:
        """Strength level of the link from ``user`` to the receiver of ``rx_cell``."""
        return self.alpha_map[(user, rx_cell)]

    def direct(self, user: User) -> Fraction:
        return self.alpha_map[(user, user.cell)]

    @cached_property
    def integer_levels(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """Every level as an integer over the levels' common denominator.

        Returns ``(den, lv)`` with ``alpha(User(k, l), i) == Fraction(lv[k-1][l-1][i-1], den)``,
        where ``den`` is the lcm of the levels' denominators.  Sums, differences
        and comparisons of these integers are exact.  Built once per network.
        """
        den = math.lcm(*(v.denominator for v in self.alpha_map.values()))
        lv = [[[0] * self.cells for _ in range(n)] for n in self.users_per_cell]
        for ((k, l), i), v in self.alpha_map.items():
            lv[k - 1][l - 1][i - 1] = v.numerator * (den // v.denominator)
        return den, tuple(tuple(map(tuple, cell)) for cell in lv)

    @cached_property
    def convexity_holds(self) -> bool:
        """Whether the convexity conditions hold, checked once, on first access."""
        from .conditions import condition_flags  # conditions imports this module

        return condition_flags(self.integer_levels[1])[0]

    @cached_property
    def cells(self) -> int:
        return len(self.users_per_cell)

    @cached_property
    def users(self) -> tuple[User, ...]:
        """All users, in canonical (cell, slot) order."""
        return tuple(
            User(k, l) for k, n in enumerate(self.users_per_cell, 1) for l in range(1, n + 1)
        )

    @cached_property
    def full_subnetwork(self) -> Subnetwork:
        return frozenset(self.users)

    def scaled(self, c: Rational) -> "NetworkSpec":
        """Network with every strength level multiplied by ``c`` (c > 0)."""
        c = rationalize(c)
        if c <= 0:
            raise NetworkSpecError("scale factor must be positive")
        scaled = {key: c * v for key, v in self.alpha_map.items()}
        return NetworkSpec(self.users_per_cell, scaled, self.slot_provenance)

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
        for key in s:
            k, l = user = _user(key)
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
        bad user key, an unknown user, a wrong cell count or a cell that
        does not list its active slots is a ``NetworkSpecError``."""
        active = net.active_slots(s)
        if len(self.per_cell) != net.cells:
            raise NetworkSpecError("decoding order has wrong number of cells")
        for k, (slots, want) in enumerate(zip(self.per_cell, active), start=1):
            if tuple(sorted(_user((k, l)).slot for l in slots)) != want:
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
    """Finite-SNR channel description: nominal power, gains and power budgets.

    ``gains[(user, rx_cell)]`` is the complex (or magnitude) channel
    coefficient; ``tx_powers[user]`` the transmit power budget in linear
    scale.  ``nominal_power`` must be finite and exceed 1 so the level
    normalization is well defined.
    """

    nominal_power: float
    gains: Mapping[tuple[User, int], complex]
    tx_powers: Mapping[User, float]

    def __post_init__(self):
        object.__setattr__(self, "nominal_power", _nominal_power(self.nominal_power))

    @cached_property
    def levels(self) -> tuple[NetworkSpec, "FiniteSnrSpec"]:
        """The level network, derived once, plus this description relabelled
        to its slot order, which rate computations index users by.  A
        description built from a network (``sampling.finite_snr_from_network``)
        keeps that exact network instead."""
        net = strength_levels(self)
        old = {
            User(k, new): User(k, slot)
            for k, slots in enumerate(net.slot_provenance, start=1)
            for new, slot in enumerate(slots, start=1)
        }
        gains = {(u, i): self.gains[(old[u], i)] for u in net.users for i in range(1, net.cells + 1)}
        powers = {u: self.tx_powers[old[u]] for u in net.users}
        return net, _with_levels(FiniteSnrSpec(self.nominal_power, gains, powers), net)

    def link_power(self, user: User, rx_cell: int) -> float:
        """|h|^2 * P_tx of a link, the quantity whose exponent is the level."""
        h = self.gains[(user, rx_cell)]
        try:
            power = abs(h) ** 2 * self.tx_powers[user]
        except OverflowError:
            power = math.inf
        if power == math.inf:
            raise NetworkSpecError(f"link {user}->rx{rx_cell} has a power beyond the float range")
        return power

    def clipped_link_power(self, user: User, rx_cell: int) -> float:
        return max(1.0, self.link_power(user, rx_cell))


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
    slot-sorted.  ``FiniteSnrSpec`` has checked that 1 < P < inf.
    """
    if not fs.gains:
        raise NetworkSpecError("finite-SNR description has no gains")
    missing = {u for (u, _) in fs.gains} - set(fs.tx_powers)
    if missing:
        raise NetworkSpecError(f"no power budget for users {sorted(missing)}")
    cells = max(rx for (_, rx) in fs.gains)
    users_per_cell = [
        max((u.slot for u in fs.tx_powers if u.cell == k), default=0) for k in range(1, cells + 1)
    ]
    log_p = math.log(fs.nominal_power)
    alpha = {
        (user, rx): rationalize(math.log(fs.clipped_link_power(user, rx)) / log_p)
        for (user, rx) in fs.gains
    }
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

    def as_gain(v):
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(float(v[0]), float(v[1]))
        return complex(float(v), 0.0)

    gains = {}
    for (user, rx), v in _parse_link_records(gains_rec, f"{where}: gains").items():
        try:
            gains[(user, rx)] = as_gain(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise NetworkSpecError(
                f"{where}: gain of link {user}->rx{rx} is not a number ({exc})"
            ) from exc
        if cmath.isnan(gains[(user, rx)]):
            raise NetworkSpecError(f"{where}: gain of link {user}->rx{rx} is NaN")
    if not gains:
        raise NetworkSpecError(f"{where}: finite_snr block has no gains")
    if not isinstance(power_rec, list):
        raise NetworkSpecError(f"{where}: tx_powers must be a list")
    linked = {u for (u, _) in gains}
    powers = {}
    for idx, rec in enumerate(power_rec):
        try:
            user, p_tx = _user((rec["cell"], rec["slot"])), float(rec["value"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise NetworkSpecError(f"{where}: tx_powers[{idx}] malformed ({exc})") from exc
        if user in powers:
            raise NetworkSpecError(f"{where}: tx_powers[{idx}]: duplicate entry for {user}")
        if not p_tx > 0:
            raise NetworkSpecError(
                f"{where}: tx_powers[{idx}]: power budget of {user} must be positive, got {p_tx!r}"
            )
        if user not in linked:
            raise NetworkSpecError(f"{where}: tx_powers[{idx}]: no gain names user {user}")
        powers[user] = p_tx
    return FiniteSnrSpec(p, gains, powers)
