import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tin_gdof.analysis import (
    achievable_gdof,
    achievable_rates,
    gdof_dominates,
    general_membership,
    max_weighted_gdof,
    region_includes,
)
from tin_gdof.cellsim import ScenarioParams, path_loss_db
from tin_gdof.errors import NetworkSpecError, TinGdofError
from tin_gdof.potential import PowerAllocation, build_potential_graph
from tin_gdof.regions import (
    GdofTuple,
    LinearInequality,
    bound_indices,
    enumerate_cyclic_sequences,
    membership,
    polyhedral_region,
    set_function_f,
)
from tin_gdof.sampling import finite_snr_from_network
from tin_gdof.model import (
    DecodingOrder,
    FiniteSnrSpec,
    NetworkSpec,
    User,
    enumerate_orders,
    finite_snr_from_document,
    load_network,
    network_from_document,
    rationalize,
    strength_levels,
)


def write_network(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return path


def alpha_records(entries):
    return [
        {"tx_cell": k, "tx_slot": l, "rx_cell": i, "value": v}
        for (k, l, i), v in entries.items()
    ]


def test_load_network_round_trip(tmp_path):
    doc = {
        "cells": 2,
        "users_per_cell": [2, 1],
        "alpha": alpha_records(
            {
                (1, 1, 1): 1.0,
                (1, 1, 2): 0.1,
                (1, 2, 1): 1.2,
                (1, 2, 2): 0.5,
                (2, 1, 1): 0.2,
                (2, 1, 2): 1.0,
            }
        ),
    }
    net = load_network(write_network(tmp_path, doc))
    assert net.cells == 2
    assert len(net.users) == 3
    assert net.alpha(User(1, 2), 2) == Fraction(1, 2)  # decimals parse exactly


def test_negative_alpha_clipped_with_warning(tmp_path):
    doc = {
        "cells": 1,
        "users_per_cell": [1],
        "alpha": alpha_records({(1, 1, 1): -0.3}),
    }
    with pytest.warns(UserWarning, match="clipped"):
        net = load_network(write_network(tmp_path, doc))
    assert net.direct(User(1, 1)) == 0


def test_unsorted_directs_relabelled(tmp_path):
    doc = {
        "cells": 2,
        "users_per_cell": [2, 1],
        "alpha": alpha_records(
            {
                (1, 1, 1): 1.5,
                (1, 1, 2): 0.4,
                (1, 2, 1): 1.0,
                (1, 2, 2): 0.3,
                (2, 1, 1): 0.0,
                (2, 1, 2): 1.0,
            }
        ),
    }
    net = load_network(write_network(tmp_path, doc))
    assert net.direct(User(1, 1)) == Fraction(1)
    assert net.direct(User(1, 2)) == Fraction(3, 2)
    # cross levels move together with their user
    assert net.alpha(User(1, 1), 2) == Fraction(3, 10)
    assert net.alpha(User(1, 2), 2) == Fraction(2, 5)
    assert net.slot_provenance[0] == (2, 1)


def test_direct_order_invariant_holds_after_construction(pimac_nonconvex):
    net = pimac_nonconvex
    for k in range(1, net.cells + 1):
        directs = [net.direct(User(k, l)) for l in range(1, net.users_per_cell[k - 1] + 1)]
        assert directs == sorted(directs)


def test_missing_entry_reports_location(tmp_path):
    doc = {
        "cells": 1,
        "users_per_cell": [2],
        "alpha": alpha_records({(1, 1, 1): 0.5}),
    }
    with pytest.raises(NetworkSpecError, match=r"u\(1,2\)"):
        load_network(write_network(tmp_path, doc))


def test_duplicate_entry_rejected(tmp_path):
    doc = {
        "cells": 1,
        "users_per_cell": [1],
        "alpha": alpha_records({(1, 1, 1): 0.5}) * 2,
    }
    with pytest.raises(NetworkSpecError, match="duplicate"):
        load_network(write_network(tmp_path, doc))


@pytest.mark.parametrize("block", ["gains", "tx_powers"])
def test_duplicate_finite_snr_record_rejected(block):
    doc = {
        "cells": 1,
        "users_per_cell": [1],
        "alpha": alpha_records({(1, 1, 1): 1.0}),
        "finite_snr": {
            "nominal_power": 100.0,
            "gains": alpha_records({(1, 1, 1): 10.0}),
            "tx_powers": [{"cell": 1, "slot": 1, "value": 1.0}],
        },
    }
    records = doc["finite_snr"][block]
    records.append(dict(records[0], value=5.0))
    with pytest.raises(NetworkSpecError, match=rf"{block}\[1\]: duplicate entry"):
        finite_snr_from_document(doc)


def _two_cell_block(**edit):
    doc = {
        "cells": 2,
        "users_per_cell": [1, 1],
        "alpha": alpha_records({(1, 1, 1): 1.0, (2, 1, 2): 1.0}),
        "finite_snr": {
            "nominal_power": 100.0,
            "gains": alpha_records({(1, 1, 1): 10.0, (2, 1, 2): 10.0}),
            "tx_powers": [
                {"cell": 1, "slot": 1, "value": 1.0},
                {"cell": 2, "slot": 1, "value": 1.0},
            ],
        },
    }
    doc["finite_snr"].update(edit)
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"gains": []}, r"finite_snr block has no gains"),
        (
            {"gains": alpha_records({(1, 1, 1): math.nan, (2, 1, 2): 10.0})},
            r"gain of link u\(1,1\)->rx1 is NaN",
        ),
        (
            {"gains": [{"tx_cell": 1, "tx_slot": 1, "rx_cell": 1, "value": [1.0, math.nan]},
                       {"tx_cell": 2, "tx_slot": 1, "rx_cell": 2, "value": 10.0}]},
            r"gain of link u\(1,1\)->rx1 is NaN",
        ),
        (
            {"tx_powers": [{"cell": 1, "slot": 1, "value": 1.0},
                           {"cell": 2, "slot": 1, "value": math.nan}]},
            r"tx_powers\[1\]: power budget of u\(2,1\) must be positive, got nan",
        ),
        (
            {"tx_powers": [{"cell": 1, "slot": 1, "value": 0.0},
                           {"cell": 2, "slot": 1, "value": 1.0}]},
            r"tx_powers\[0\]: power budget of u\(1,1\) must be positive, got 0.0",
        ),
        (
            {"tx_powers": [{"cell": 1, "slot": 1, "value": 1.0},
                           {"cell": 2, "slot": 1, "value": 1.0},
                           {"cell": 3, "slot": 1, "value": 1.0}]},
            r"tx_powers\[2\]: no gain names user u\(3,1\)",
        ),
        (
            {"tx_powers": [{"cell": 1, "slot": 0, "value": 1.0},
                           {"cell": 1, "slot": 1, "value": 1.0},
                           {"cell": 2, "slot": 1, "value": 1.0}]},
            r"tx_powers\[0\]: no gain names user u\(1,0\)",
        ),
    ],
    ids=["no-gains", "nan-gain", "nan-imaginary-part", "nan-power", "zero-power",
         "power-of-cell-3", "power-of-slot-0"],
)
def test_finite_snr_block_rejects_records_it_cannot_use(edit, message):
    # Each was read before: no gains crashed on max(), a NaN gain or budget
    # became a link at the noise floor, and an unused budget was dropped.
    assert finite_snr_from_document(_two_cell_block()) is not None
    with pytest.raises(NetworkSpecError, match=message):
        finite_snr_from_document(_two_cell_block(**edit))


def test_link_power_beyond_float_range_names_the_link():
    for gain, power in ((1e200, 1.0), (1e150, 1e10)):
        fs = FiniteSnrSpec(100.0, {(User(1, 1), 1): complex(gain)}, {User(1, 1): power})
        with pytest.raises(NetworkSpecError, match=r"link u\(1,1\)->rx1"):
            fs.link_power(User(1, 1), 1)


def test_synthesized_gain_beyond_float_range_names_the_link():
    # The gain P^(level/2) = 1e375 overflows before any link power is formed.
    net = NetworkSpec.from_alpha(1, [1], {(User(1, 1), 1): Fraction(3)})
    with pytest.raises(NetworkSpecError, match=r"link u\(1,1\)->rx1"):
        finite_snr_from_network(net, 1e250)


def single_link_fs(p, link_power):
    return FiniteSnrSpec(
        p, {(User(1, 1), 1): complex(math.sqrt(link_power))}, {User(1, 1): 1.0}
    )


@pytest.mark.parametrize(
    "link_power,expected",
    [(100.0, Fraction(1)), (0.5, Fraction(0)), (10.0, Fraction(1, 2))],
)
def test_strength_levels_examples(link_power, expected):
    net = strength_levels(single_link_fs(100.0, link_power))
    assert net.direct(User(1, 1)) == expected


def test_strength_levels_rejects_degenerate_base():
    with pytest.raises(NetworkSpecError):
        strength_levels(single_link_fs(1.0, 10.0))


@given(st.integers(1, 3), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_strength_levels_scale_consistency(c, tenth_alpha):
    # boosting a link by P^c shifts its (un-clipped) level by exactly c
    p = 100.0
    alpha = tenth_alpha / 10.0
    before = strength_levels(single_link_fs(p, p**alpha)).direct(User(1, 1))
    after = strength_levels(single_link_fs(p, p ** (alpha + c))).direct(User(1, 1))
    assert after - before == c


def test_enumerate_orders_pimac(pimac_nonconvex):
    orders = list(enumerate_orders(pimac_nonconvex))
    assert len(orders) == 2
    assert DecodingOrder(((1, 2), (1,))) in orders
    assert DecodingOrder(((2, 1), (1,))) in orders


def test_enumerate_orders_empty_subnetwork(pimac_nonconvex):
    orders = list(enumerate_orders(pimac_nonconvex, frozenset()))
    assert orders == [DecodingOrder(((), ()))]


def test_enumerate_orders_product_of_factorials():
    alpha = {}
    users_per_cell = [2, 2, 3]
    for k, n in enumerate(users_per_cell, start=1):
        for l in range(1, n + 1):
            for i in range(1, 4):
                alpha[(User(k, l), i)] = Fraction(l, 10) if i == k else Fraction(0)
    net = NetworkSpec.from_alpha(3, users_per_cell, alpha)
    assert len(list(enumerate_orders(net))) == 2 * 2 * 6
    assert len(set(enumerate_orders(net))) == 24


def test_rationalize_rounds_floats():
    assert rationalize(0.15) == Fraction(3, 20)
    assert rationalize(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        rationalize(float("nan"))


def test_subnetwork_validation(pimac_nonconvex):
    net = pimac_nonconvex
    s = frozenset({User(1, 2), User(2, 1)})
    assert DecodingOrder(((2,), (1,))).validate(net, [(1, 2), (2, 1)]) == s
    assert DecodingOrder.identity(net).validate(net) == net.full_subnetwork
    with pytest.raises(NetworkSpecError):
        DecodingOrder.identity(net).validate(net, {User(3, 1)})


def test_active_slots_split_a_subnetwork_by_cell(pimac_nonconvex):
    net = pimac_nonconvex
    assert net.active_slots() == ((1, 2), (1,))
    assert net.active_slots([User(1, 2), (2, 1), User(1, 2)]) == ((2,), (1,))
    assert net.active_slots(frozenset()) == ((), ())
    for unknown in (User(3, 1), User(1, 3), User(0, 1), User(2, 0)):
        with pytest.raises(NetworkSpecError, match="unknown users"):
            net.active_slots({User(1, 1), unknown})


def test_decoding_order_validation_names_the_active_slots(pimac_nonconvex):
    net = pimac_nonconvex
    s = frozenset({User(1, 2), User(2, 1)})
    assert DecodingOrder.identity(net, s) == DecodingOrder(((2,), (1,)))
    DecodingOrder(((2, 1), (1,))).validate(net)
    with pytest.raises(NetworkSpecError, match=r"cell 1 .* active slots \[2\]"):
        DecodingOrder(((1,), (1,))).validate(net, s)
    with pytest.raises(NetworkSpecError, match="wrong number of cells"):
        DecodingOrder(((1, 2),)).validate(net)
    with pytest.raises(NetworkSpecError, match="unknown users"):
        DecodingOrder.identity(net, {User(2, 2)})


def test_load_finite_snr_block(tmp_path):
    from tin_gdof.model import load_finite_snr

    doc = {
        "cells": 1,
        "users_per_cell": [1],
        "alpha": alpha_records({(1, 1, 1): 1.0}),
        "finite_snr": {
            "nominal_power": 100.0,
            "gains": [
                {"tx_cell": 1, "tx_slot": 1, "rx_cell": 1, "value": [6.0, 8.0]}
            ],
            "tx_powers": [{"cell": 1, "slot": 1, "value": 1.0}],
        },
    }
    path = write_network(tmp_path, doc)
    fs = load_finite_snr(path)
    assert fs.gains[(User(1, 1), 1)] == complex(6.0, 8.0)
    assert fs.link_power(User(1, 1), 1) == pytest.approx(100.0)
    assert strength_levels(fs).direct(User(1, 1)) == Fraction(1)

    doc.pop("finite_snr")
    with pytest.raises(NetworkSpecError, match="finite_snr"):
        load_finite_snr(write_network(tmp_path, doc))


@pytest.mark.parametrize(
    "content",
    [None, "{bad", "[1,2]"],
    ids=["missing-file", "malformed-json", "top-level-list"],
)
def test_load_finite_snr_bad_file_is_spec_error(tmp_path, content):
    from tin_gdof.model import load_finite_snr

    path = tmp_path / "net.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(NetworkSpecError):
        load_finite_snr(path)


def test_levels_relabel_the_description_once():
    # cell 1's input slot 1 is the stronger user, so the slots swap
    fs = FiniteSnrSpec(
        100.0,
        {
            (User(1, 1), 1): complex(100.0),
            (User(1, 2), 1): complex(10.0),
            (User(1, 1), 2): complex(2.0),
            (User(1, 2), 2): complex(1.0),
            (User(2, 1), 1): complex(1.0),
            (User(2, 1), 2): complex(10.0),
        },
        {User(1, 1): 1.0, User(1, 2): 2.0, User(2, 1): 1.0},
    )
    net, relabelled = fs.levels
    assert fs.levels is fs.levels
    assert net.slot_provenance == ((2, 1), (1,))
    assert relabelled.tx_powers == {User(1, 1): 2.0, User(1, 2): 1.0, User(2, 1): 1.0}
    assert relabelled.gains[(User(1, 2), 2)] == complex(2.0)
    assert relabelled.levels == (net, relabelled)


@pytest.mark.parametrize("p", [1.0, math.nan, math.inf])
def test_strength_levels_rejects_non_finite_or_degenerate_power(p):
    with pytest.raises(NetworkSpecError, match="nominal power"):
        strength_levels(single_link_fs(p, 10.0))


def test_finite_snr_without_gains_is_a_spec_error():
    # built in code, not read from a file, so no document check runs first
    with pytest.raises(NetworkSpecError, match="no gains"):
        FiniteSnrSpec(100.0, {}, {}).levels
    with pytest.raises(NetworkSpecError, match="no gains"):
        strength_levels(FiniteSnrSpec(100.0, {}, {User(1, 1): 1.0}))


# -- the input contract ------------------------------------------------------
# Every public entry that takes users or orders turns bad ones into a
# NetworkSpecError: a user key that is not a pair of ints, a user the network
# does not have, an order with the wrong cell count, and, for the evaluators,
# an allocation that does not power every decoded user.

BAD_KEY = (1.0, 1)
UNKNOWN = User(1, 3)  # cell 1 has two users
IDENTITY = DecodingOrder(((1, 2), (1,)))
WRONG_CELLS = DecodingOrder(((1, 2),))
BAD_ORDERS = {
    "key": DecodingOrder(((1.0, 2), (1,))),
    "unknown": DecodingOrder(((1, 3), (1,))),
    "cells": WRONG_CELLS,
}


def full_power(net):
    return PowerAllocation({u: 0 for u in net.users}, frozenset())


def single_user_region():
    net = NetworkSpec.from_alpha(1, [1], {(User(1, 1), 1): 1})
    return polyhedral_region(net, DecodingOrder.identity(net))


def scope_cases(entry, call):
    """The bad scopes of an entry called as ``call(net, order, s)``."""
    return [
        pytest.param(lambda net: call(net, IDENTITY, {BAD_KEY}), id=f"{entry}-key"),
        pytest.param(lambda net: call(net, BAD_ORDERS["key"], None), id=f"{entry}-order-key"),
        pytest.param(lambda net: call(net, IDENTITY, {UNKNOWN}), id=f"{entry}-unknown"),
        pytest.param(lambda net: call(net, WRONG_CELLS, None), id=f"{entry}-cells"),
    ]


def evaluator_cases(entry, call):
    """The bad orders and the short allocation of an entry called as
    ``call(net, order, alloc)``."""
    cases = [
        pytest.param(lambda net, o=order: call(net, o, full_power(net)), id=f"{entry}-{name}")
        for name, order in BAD_ORDERS.items()
    ]
    short = PowerAllocation({User(1, 1): 0, User(2, 1): 0}, frozenset())
    cases.append(pytest.param(lambda net: call(net, IDENTITY, short), id=f"{entry}-no-power"))
    return cases


CONTRACT = [
    pytest.param(lambda net: GdofTuple({BAD_KEY: 1}), id="GdofTuple-key"),
    pytest.param(lambda net: PowerAllocation({BAD_KEY: 0}, frozenset()), id="PowerAllocation-key"),
    pytest.param(lambda net: PowerAllocation({}, frozenset([BAD_KEY])), id="PowerAllocation-off-key"),
    *scope_cases("polyhedral_region", polyhedral_region),
    *scope_cases("build_potential_graph", build_potential_graph),
    *scope_cases("bound_indices", lambda net, order, s: list(bound_indices(net, order, s))),
    *scope_cases("set_function_f", lambda net, order, s: set_function_f(net, order, s or {User(1, 1)})),
    pytest.param(lambda net: list(enumerate_orders(net, {BAD_KEY})), id="enumerate_orders-key"),
    pytest.param(lambda net: list(enumerate_orders(net, {UNKNOWN})), id="enumerate_orders-unknown"),
    *evaluator_cases("achievable_gdof", achievable_gdof),
    *evaluator_cases(
        "gdof_dominates",
        lambda net, order, alloc: gdof_dominates(net, order, alloc, GdofTuple.zero(net)),
    ),
    *evaluator_cases(
        "achievable_rates",
        lambda net, order, alloc: achievable_rates(finite_snr_from_network(net, 100.0), order, alloc),
    ),
    pytest.param(lambda net: general_membership(net, GdofTuple({BAD_KEY: 1})), id="general_membership-key"),
    pytest.param(lambda net: general_membership(net, GdofTuple({UNKNOWN: 1})), id="general_membership-unknown"),
    pytest.param(
        lambda net: max_weighted_gdof(polyhedral_region(net, IDENTITY), {BAD_KEY: 1}),
        id="max_weighted_gdof-key",
    ),
    pytest.param(
        lambda net: max_weighted_gdof(polyhedral_region(net, IDENTITY), {UNKNOWN: 1}),
        id="max_weighted_gdof-unknown",
    ),
    pytest.param(
        lambda net: gdof_dominates(net, IDENTITY, full_power(net), GdofTuple({UNKNOWN: 1})),
        id="gdof_dominates-unknown-d",
    ),
    pytest.param(
        lambda net: membership(polyhedral_region(net, IDENTITY), GdofTuple({UNKNOWN: 1})),
        id="membership-unknown",
    ),
    pytest.param(
        lambda net: region_includes(polyhedral_region(net, IDENTITY), single_user_region()),
        id="region_includes-users",
    ),
]


@pytest.mark.parametrize("call", CONTRACT)
def test_bad_users_and_orders_are_spec_errors(call, pimac_optimal):
    with pytest.raises(NetworkSpecError):
        call(pimac_optimal)


BAD_VALUES = [
    pytest.param(lambda net: GdofTuple({User(1, 1): -1}), id="GdofTuple-negative"),
    pytest.param(lambda net: GdofTuple.from_values(net, [1, 1]), id="GdofTuple.from_values-count"),
    pytest.param(lambda net: PowerAllocation({User(1, 1): 1}, frozenset()), id="PowerAllocation-positive"),
    pytest.param(
        lambda net: PowerAllocation({User(1, 1): 0}, frozenset([User(1, 1)])),
        id="PowerAllocation-powered-and-off",
    ),
    pytest.param(
        lambda net: max_weighted_gdof(polyhedral_region(net, IDENTITY), {User(1, 1): -1}),
        id="max_weighted_gdof-negative",
    ),
    pytest.param(lambda net: net.scaled(0), id="NetworkSpec.scaled-zero"),
]


@pytest.mark.parametrize("call", BAD_VALUES)
def test_bad_values_are_package_errors(call, pimac_optimal):
    # A NetworkSpecError, which is also the ValueError these checks raised before.
    with pytest.raises(TinGdofError):
        call(pimac_optimal)
    with pytest.raises(ValueError):
        call(pimac_optimal)


def test_one_scope_check_per_request(monkeypatch, pimac_optimal):
    # An identity-order weighted sum-GDoF solve checks its scope once for the
    # identity order and once for the region; a query on a convexity network
    # once for its order enumeration and once for the one graph it builds.
    calls = []
    original = NetworkSpec.active_slots

    def counting(self, s=None):
        calls.append(s)
        return original(self, s)

    net = pimac_optimal
    assert net.convexity_holds
    monkeypatch.setattr(NetworkSpec, "active_slots", counting)
    region = polyhedral_region(net, DecodingOrder.identity(net))
    opt = max_weighted_gdof(region, dict.fromkeys(net.users, 1))
    assert opt.value == Fraction(19, 10)
    assert len(calls) <= 2
    for d, member in ((opt.argmax, True), (GdofTuple.from_values(net, [1, 1, 1]), False)):
        calls.clear()
        assert general_membership(net, d).member == member
        assert len(calls) <= 2


# -- one rule per kind of number ---------------------------------------------
# Exact values go through ``rationalize``, counts and indices through the
# user-key integer rule, real parameters through one finite-float check.
# Every entry point turns a bad number into a NetworkSpecError.

NOT_NUMBERS = [math.nan, math.inf, None, "x"]
NOT_COUNTS = NOT_NUMBERS + [2.5, "3"]
ONE = User(1, 1)


def _one_link(value=1, cells=1, users_per_cell=(1,), rx=1):
    return NetworkSpec.from_alpha(cells, list(users_per_cell), {(ONE, rx): value})


def _one_link_document(cells=1, users_per_cell=(1,), **record):
    rec = {"tx_cell": 1, "tx_slot": 1, "rx_cell": 1, "value": 1, **record}
    return {"cells": cells, "users_per_cell": users_per_cell, "alpha": [rec]}


def _tx_power_record(**edit):
    powers = [{"cell": 1, "slot": 1, "value": 1.0, **edit}, {"cell": 2, "slot": 1, "value": 1.0}]
    return _two_cell_block(tx_powers=powers)


def _scenario(**edit):
    kw = dict(geometry="circular", site_radius_m=150.0, users_per_cell=1, trials=1, seed=0)
    kw.update(edit)
    return ScenarioParams(**kw)


def _region_of(net):
    return polyhedral_region(net, DecodingOrder.identity(net))


# name: (call(net, value), a value that the call accepts)
EXACT_ENTRIES = {
    "GdofTuple": (lambda net, v: GdofTuple({ONE: v}), 1),
    "GdofTuple.from_values": (lambda net, v: GdofTuple.from_values(net, [v, 0, 0]), 1),
    "GdofTuple.scaled": (lambda net, v: GdofTuple.zero(net).scaled(v), 1),
    "PowerAllocation": (lambda net, v: PowerAllocation({ONE: v}, frozenset()), -1),
    "max_weighted_gdof": (lambda net, v: max_weighted_gdof(_region_of(net), {ONE: v}), 1),
    "NetworkSpec.scaled": (lambda net, v: net.scaled(v), 1),
    "LinearInequality": (lambda net, v: LinearInequality(frozenset([ONE]), v), 1),
    "from_alpha-level": (lambda net, v: _one_link(value=v), 1),
}
COUNT_ENTRIES = {
    "from_alpha-cells": (lambda net, v: _one_link(cells=v), 1),
    "from_alpha-users_per_cell": (lambda net, v: _one_link(users_per_cell=(v,)), 1),
    "from_alpha-rx": (lambda net, v: _one_link(rx=v), 1),
    "file-cells": (lambda net, v: network_from_document(_one_link_document(cells=v)), 1),
    "file-users_per_cell": (
        lambda net, v: network_from_document(_one_link_document(users_per_cell=[v])),
        1,
    ),
    "file-tx_cell": (lambda net, v: network_from_document(_one_link_document(tx_cell=v)), 1),
    "file-tx_slot": (lambda net, v: network_from_document(_one_link_document(tx_slot=v)), 1),
    "file-rx_cell": (lambda net, v: network_from_document(_one_link_document(rx_cell=v)), 1),
    "file-tx_powers-cell": (lambda net, v: finite_snr_from_document(_tx_power_record(cell=v)), 1),
    "file-tx_powers-slot": (lambda net, v: finite_snr_from_document(_tx_power_record(slot=v)), 1),
    "ScenarioParams-users_per_cell": (lambda net, v: _scenario(users_per_cell=v), 1),
    "ScenarioParams-trials": (lambda net, v: _scenario(trials=v), 1),
    "ScenarioParams-seed": (lambda net, v: _scenario(seed=v), 1),
    "ScenarioParams-cells": (lambda net, v: _scenario(cells=v), 2),
}
REAL_ENTRIES = {
    "ScenarioParams-site_radius_m": (lambda net, v: _scenario(site_radius_m=v), 150.0),
    "strength_levels-nominal_power": (
        lambda net, v: strength_levels(single_link_fs(v, 10.0)),
        100.0,
    ),
    "finite_snr_from_network": (lambda net, v: finite_snr_from_network(net, v), 100.0),
    "file-nominal_power": (
        lambda net, v: finite_snr_from_document(_two_cell_block(nominal_power=v)),
        100.0,
    ),
}
NUMBER_ENTRIES = [
    (name, call, good, bad)
    for entries, bad in (
        (EXACT_ENTRIES, NOT_NUMBERS),
        (COUNT_ENTRIES, NOT_COUNTS),
        (REAL_ENTRIES, NOT_NUMBERS),
    )
    for name, (call, good) in entries.items()
]


def _number_cases():
    for name, call, _, bad in NUMBER_ENTRIES:
        for v in bad:
            if v is None and name == "ScenarioParams-cells":
                continue  # None asks for the geometry's default
            yield pytest.param(lambda net, c=call, v=v: c(net, v), id=f"{name}-{v!r}")
    yield pytest.param(
        lambda net: network_from_document(_one_link_document(users_per_cell=5)),
        id="file-users_per_cell-not-a-list",
    )
    # The four checks that raised a bare ValueError.
    yield pytest.param(lambda net: list(enumerate_cyclic_sequences([])), id="cyclic-no-cells")
    yield pytest.param(lambda net: list(enumerate_cyclic_sequences([1], 0)), id="cyclic-min_len-0")
    yield pytest.param(lambda net: LinearInequality(frozenset(), 0), id="LinearInequality-no-users")
    yield pytest.param(lambda net: path_loss_db(0), id="path_loss_db-0")


@pytest.mark.parametrize("call", list(_number_cases()))
def test_bad_numbers_are_spec_errors(call, pimac_optimal):
    with pytest.raises(NetworkSpecError):
        call(pimac_optimal)


@pytest.mark.parametrize("name, call, good", [entry[:3] for entry in NUMBER_ENTRIES])
def test_each_number_entry_accepts_a_good_value(name, call, good, pimac_optimal):
    # So that each case of the table above fails on its value alone.
    call(pimac_optimal, good)


def test_a_float_exact_value_means_its_nine_digit_rounding(pimac_optimal):
    net, tenth = pimac_optimal, Fraction(1, 10)
    assert GdofTuple({ONE: 0.1})[ONE] == tenth
    assert GdofTuple.from_values(net, [0.1, 0, 0])[ONE] == tenth
    assert GdofTuple({ONE: 1}).scaled(0.1)[ONE] == tenth
    assert PowerAllocation({ONE: -0.1}, frozenset())[ONE] == -tenth
    assert LinearInequality(frozenset([ONE]), 0.1).rhs == tenth
    assert net.scaled(0.1).alpha_map == net.scaled(tenth).alpha_map
    region = _region_of(net)
    weights = dict.fromkeys(net.users, 1)
    assert max_weighted_gdof(region, {**weights, ONE: 0.1}) == max_weighted_gdof(
        region, {**weights, ONE: tenth}
    )


def test_other_rational_types_convert_exactly():
    one = _one_link(value=numpy.int64(1), cells=numpy.int64(1), users_per_cell=[numpy.int64(1)])
    assert one.direct(ONE) == 1 and one.users_per_cell == (1,)
    assert rationalize(Decimal("0.1")) == rationalize("0.1") == rationalize("1/10") == Fraction(1, 10)
    assert rationalize(1e300) == Fraction(int(1e300))  # too large to scale, already an integer
    assert _scenario(seed=numpy.int64(3)).seed == 3
    assert _scenario(site_radius_m="150").site_radius_m == 150.0


def test_from_alpha_names_the_link_of_a_bad_level():
    with pytest.raises(NetworkSpecError, match=r"alpha entry for link u\(1,1\)->rx1"):
        _one_link(value="x")


# (alpha, what the error names): an alpha that is not a mapping, or a key
# that is not a (user, receiver cell) pair.
BAD_ALPHA_SHAPES = [
    pytest.param({"x": 1}, r"alpha key 'x' is not a \(user, receiver cell\) pair", id="key-str"),
    pytest.param({5: 1}, r"alpha key 5 is not a \(user, receiver cell\) pair", id="key-int"),
    pytest.param({(ONE, 1, 1): 1}, r"is not a \(user, receiver cell\) pair", id="key-triple"),
    pytest.param([1], r"alpha must be a mapping", id="list"),
    pytest.param(None, r"alpha must be a mapping", id="None"),
]


@pytest.mark.parametrize("alpha, message", BAD_ALPHA_SHAPES)
def test_from_alpha_rejects_malformed_alpha(alpha, message):
    with pytest.raises(NetworkSpecError, match=message):
        NetworkSpec.from_alpha(1, [1], alpha)
