import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tin_gdof.errors import NetworkSpecError
from tin_gdof.sampling import finite_snr_from_network
from tin_gdof.model import (
    DecodingOrder,
    FiniteSnrSpec,
    NetworkSpec,
    User,
    enumerate_orders,
    finite_snr_from_document,
    load_network,
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
        directs = [net.direct(u) for u in net.users_in_cell(k)]
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
    with pytest.raises(NetworkSpecError):
        pimac_nonconvex.validate_subnetwork({User(3, 1)})


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
