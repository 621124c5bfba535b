import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tin_gdof import cellsim, conditions
from tin_gdof.cellsim import (
    LEVEL_DIGITS,
    LEVEL_REFERENCE_DB,
    NOISE_FLOOR_DBM,
    TX_POWER_DBM,
    ScenarioParams,
    estimate_probabilities,
    path_loss_db,
    sample_network,
    sweep,
)
from tin_gdof.conditions import evaluate_conditions
from tin_gdof.errors import NetworkSpecError
from tin_gdof.model import NetworkSpec, User, rationalize


def params(**kw):
    base = dict(
        geometry="linear",
        site_radius_m=150.0,
        users_per_cell=2,
        trials=50,
        seed=7,
    )
    base.update(kw)
    return ScenarioParams(**base)


def test_path_loss_values():
    assert path_loss_db(1.0) == pytest.approx(148.1, abs=1e-12)
    assert path_loss_db(0.1) == pytest.approx(148.1 - 37.6, abs=1e-9)
    # at 243 m the received power meets the noise floor almost exactly
    received = 23.0 - path_loss_db(0.243)
    assert received == pytest.approx(-102.0, abs=0.15)
    with pytest.raises(ValueError):
        path_loss_db(0.0)


def test_sample_network_deterministic():
    p = params()
    a = sample_network(p, 3)
    b = sample_network(p, 3)
    assert a.alpha_map == b.alpha_map
    c = sample_network(p, 4)
    assert a.alpha_map != c.alpha_map


def test_direct_levels_dominate_cross_levels():
    for geometry, cells in (("linear", 2), ("circular", 4)):
        p = params(geometry=geometry, cells=cells, users_per_cell=3)
        for trial in range(20):
            net = sample_network(p, trial)
            for u in net.users:
                for i in range(1, net.cells + 1):
                    if i != u.cell:
                        assert net.direct(u) >= net.alpha(u, i)


def test_direct_levels_within_geometry_bounds():
    p = params(site_radius_m=200.0, exclusion_m=35.0)
    lo = (23.0 - path_loss_db(0.200) + 102.0) / LEVEL_REFERENCE_DB
    hi = (23.0 - path_loss_db(0.035) + 102.0) / LEVEL_REFERENCE_DB
    for trial in range(20):
        net = sample_network(p, trial)
        for u in net.users:
            assert lo - 1e-9 <= float(net.direct(u)) <= hi + 1e-9


def test_circular_nonadjacent_cells_do_not_interfere():
    p = params(geometry="circular", cells=4, users_per_cell=1)
    net = sample_network(p, 0)
    assert net.alpha(User(1, 1), 3) == 0
    assert net.alpha(User(2, 1), 4) == 0
    assert net.alpha(User(1, 1), 2) >= 0


def test_cell_edge_radius_kills_interference():
    # at 244 m the cell-edge margin is strictly below the noise floor, so
    # every cross level clips to exactly zero; at 243 m the margin is about
    # +0.001 dB, so users within millimeters of the border can leak an
    # epsilon level, which the conditions absorb
    for geometry, cells in (("linear", 2), ("circular", 4)):
        p = params(geometry=geometry, cells=cells, site_radius_m=244.0, users_per_cell=2)
        for trial in range(30):
            net = sample_network(p, trial)
            for u in net.users:
                for i in range(1, net.cells + 1):
                    if i != u.cell:
                        assert net.alpha(u, i) == 0
        p = params(geometry=geometry, cells=cells, site_radius_m=243.0, users_per_cell=2)
        for trial in range(30):
            net = sample_network(p, trial)
            for u in net.users:
                for i in range(1, net.cells + 1):
                    if i != u.cell:
                        assert net.alpha(u, i) < Fraction(1, 10000)
            report = evaluate_conditions(net)
            assert report.convexity_holds and report.optimality_holds


def test_estimate_probabilities_certain_at_cell_edge():
    p = params(site_radius_m=243.0, trials=40)
    pt = estimate_probabilities(p)
    assert pt.p_convexity == 1.0
    assert pt.p_optimality == 1.0
    assert pt.ci95_halfwidth == 0.0


def test_single_trial_probability_is_boolean():
    pt = estimate_probabilities(params(trials=1, site_radius_m=80.0))
    assert pt.p_convexity in (0.0, 1.0)
    assert pt.p_optimality in (0.0, 1.0)


def test_optimality_never_exceeds_convexity():
    for r in (80.0, 150.0, 243.0):
        pt = estimate_probabilities(params(site_radius_m=r, trials=60))
        assert pt.p_optimality <= pt.p_convexity


def test_sweep_shapes_and_reference_invariance():
    curve = sweep(params(trials=30), [100.0, 180.0, 243.0])
    assert [pt.r_m for pt in curve.points] == [100.0, 180.0, 243.0]
    # condition outcomes are invariant to the level reference (scale the
    # sampled network and re-check)
    net = sample_network(params(), 0)
    base = evaluate_conditions(net)
    scaled = evaluate_conditions(net.scaled(Fraction(7, 3)))
    assert base.convexity_holds == scaled.convexity_holds
    assert base.optimality_holds == scaled.optimality_holds


def test_params_validation():
    with pytest.raises(NetworkSpecError):
        params(exclusion_m=200.0, site_radius_m=100.0)
    with pytest.raises(NetworkSpecError):
        params(geometry="hex")
    with pytest.raises(NetworkSpecError):
        ScenarioParams(
            geometry="circular",
            site_radius_m=100.0,
            users_per_cell=1,
            trials=1,
            seed=0,
            cells=1,
        )


# -- reference sampler -----------------------------------------------------------
# The scalar sampler that the integer one replaced: one ``uniform`` call per
# number, ``Fraction`` levels and ``NetworkSpec.from_alpha``; kept verbatim as
# the oracle.


def _rng(p: ScenarioParams, trial_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=[p.seed & (2**64 - 1), trial_index & (2**64 - 1)])
    )


def _level(p: ScenarioParams, distance_m: float):
    margin_db = TX_POWER_DBM - path_loss_db(distance_m / 1000.0) - NOISE_FLOOR_DBM
    return rationalize(max(0.0, margin_db) / LEVEL_REFERENCE_DB, LEVEL_DIGITS)


def reference_sample_network(p: ScenarioParams, trial_index: int) -> NetworkSpec:
    """Draw one random user placement and return its strength-level network."""
    rng = _rng(p, trial_index)
    r, r0, n = p.site_radius_m, p.exclusion_m, p.users_per_cell
    alpha: dict[tuple[User, int], object] = {}

    if p.geometry == "linear":
        # Site 1 at 0 facing right, site 2 at 2r facing left; both sectors
        # cover (0, r) resp. (r, 2r), users keep r0 clear of their site.
        for slot in range(1, n + 1):
            x = rng.uniform(r0, r)
            alpha[(User(1, slot), 1)] = _level(p, x)
            alpha[(User(1, slot), 2)] = _level(p, 2 * r - x)
            y = rng.uniform(r + 0.0, 2 * r - r0)
            alpha[(User(2, slot), 2)] = _level(p, 2 * r - y)
            alpha[(User(2, slot), 1)] = _level(p, y)
        return NetworkSpec.from_alpha(2, [n, n], alpha)

    cells = p.cells
    circumference = 2 * r * cells
    for k in range(1, cells + 1):
        for slot in range(1, n + 1):
            side = 1 if rng.uniform() < 0.5 else -1
            offset = side * rng.uniform(r0, r)
            for i in range(1, cells + 1):
                ring_gap = min(abs(k - i), cells - abs(k - i))
                if ring_gap > 1:
                    alpha[(User(k, slot), i)] = 0
                    continue
                if i == k:
                    delta = abs(offset)
                else:
                    # signed ring distance, folded to the shorter arc
                    raw = (2 * r * (i - k) - offset) % circumference
                    delta = min(raw, circumference - raw)
                alpha[(User(k, slot), i)] = _level(p, delta)
    return NetworkSpec.from_alpha(cells, [n] * cells, alpha)


#: Seeds that neither the benchmark nor the other tests draw with.
ORACLE_SEEDS = (3, 2024, 2**40 + 17)


def oracle_scenarios(trials=1):
    for seed in ORACLE_SEEDS:
        for geometry, cells in [("linear", 2)] + [("circular", c) for c in range(2, 8)]:
            for users in (1, 3, 5):
                for r in (40.0, 97.5, 243.0, 400.0):
                    yield ScenarioParams(geometry, r, users, trials, seed, cells=cells)


def test_sampler_matches_scalar_reference():
    checked = 0
    for p in oracle_scenarios():
        for trial in range(3):
            got, want = sample_network(p, trial), reference_sample_network(p, trial)
            assert got.alpha_map == want.alpha_map, (p, trial)
            assert got.slot_provenance == want.slot_provenance, (p, trial)
            assert got == want
            checked += 1
    assert checked == 3 * 7 * 3 * 4 * 3


def test_estimate_probabilities_equals_network_recount():
    for p in oracle_scenarios(trials=6):
        pt = estimate_probabilities(p)
        conv = opt = 0
        for trial in range(p.trials):
            report = evaluate_conditions(sample_network(p, trial))
            conv += report.convexity_holds
            opt += report.optimality_holds
        assert (pt.p_convexity, pt.p_optimality) == (conv / p.trials, opt / p.trials), p


def test_estimate_probabilities_never_builds_a_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(NetworkSpec, "from_alpha", refuse)
    monkeypatch.setattr(NetworkSpec, "__init__", refuse)
    monkeypatch.setattr(conditions, "evaluate_conditions", refuse)
    monkeypatch.setattr(cellsim, "sample_network", refuse)
    for geometry, cells in (("linear", 2), ("circular", 5)):
        pt = estimate_probabilities(params(geometry=geometry, cells=cells, site_radius_m=243.0))
        assert pt.p_convexity == pt.p_optimality == 1.0
        pt = estimate_probabilities(params(geometry=geometry, cells=cells, site_radius_m=80.0))
        assert 0 <= pt.p_optimality <= pt.p_convexity <= 1
        assert math.isfinite(pt.ci95_halfwidth)


def test_trial_keys_do_not_collide():
    # A key list holding a word of 2**63 or more would pass through float64
    # and give each pair below one stream, with a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((-1, -2), (-2, -3), (2**63 + 1, 2**63 + 2)):
            draws_a = cellsim._rng(params(seed=a), 0).random(4)
            draws_b = cellsim._rng(params(seed=b), 0).random(4)
            assert not np.array_equal(draws_a, draws_b), (a, b)


def test_trial_key_words_are_seed_and_trial():
    for seed, trial in ((0, 0), (7, 3), (2**40 + 17, 5), (2**63 - 1, 2**32)):
        key = np.array([seed, trial], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(4)
        got = cellsim._rng(params(seed=seed), trial).random(4)
        assert np.array_equal(got, want), (seed, trial)


def test_reused_philox_draws_as_a_freshly_keyed_one():
    # One generator serves every trial; after any partial draw, re-keying
    # gives the draws of a Philox newly keyed with (seed, trial).
    for seed in (-1, 0, 2**63 + 1):
        rngs = cellsim._trial_rngs(seed)
        for trial in (0, 2**64 - 1, 0, 5, 2**64 - 1):
            fresh = np.random.Generator(
                np.random.Philox(key=np.array([seed % 2**64, trial], dtype=np.uint64))
            )
            gen = rngs(trial)
            assert np.array_equal(gen.random(3), fresh.random(3)), (seed, trial)
            assert gen.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
            assert np.array_equal(gen.random(5), fresh.random(5)), (seed, trial)


def test_estimate_probabilities_builds_one_philox(monkeypatch):
    # Bit identity with fresh per-trial keys is checked through
    # ``test_estimate_probabilities_equals_network_recount``.
    built = []
    original = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for geometry, cells in (("linear", 2), ("circular", 4)):
        built.clear()
        estimate_probabilities(params(geometry=geometry, cells=cells, trials=30))
        assert len(built) == 1
