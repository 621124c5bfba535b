import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import scaled_network
from tin_gdof import cellsim, conditions
from tin_gdof.cellsim import (
    EXCLUSION_M,
    LEVEL_REFERENCE_DB,
    NOISE_FLOOR_DBM,
    TX_POWER_DBM,
    ScenarioParams,
    estimate_probabilities,
    path_loss_db,
    sample_network,
    sweep,
)
from tin_gdof.conditions import condition_flags, evaluate_conditions
from tin_gdof.errors import GuardExceededError, NetworkSpecError
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
    assert (a.den, a.levels) == (b.den, b.levels)
    c = sample_network(p, 4)
    assert (a.den, a.levels) != (c.den, c.levels)


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
    p = params(site_radius_m=200.0)
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
    scaled = evaluate_conditions(scaled_network(net, Fraction(7, 3)))
    assert base.convexity_holds == scaled.convexity_holds
    assert base.optimality_holds == scaled.optimality_holds


@pytest.mark.parametrize(
    "geometry, radius",
    [("circular", math.inf), ("circular", 1e308), ("linear", math.inf), ("linear", 1e308)],
)
def test_params_reject_a_layout_beyond_the_float_range(geometry, radius):
    # 2r on the line and 2rK on the ring overflow; the sampler would warn
    # and report made-up probabilities.  A finite layout samples without a
    # warning, which the test settings turn into an error.
    with pytest.raises(NetworkSpecError, match="float range"):
        params(geometry=geometry, site_radius_m=radius)
    assert estimate_probabilities(params(geometry=geometry, site_radius_m=1e300)).trials == 50


def test_params_validation():
    with pytest.raises(NetworkSpecError):
        params(site_radius_m=EXCLUSION_M)
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
    for counts in ({"users_per_cell": 0}, {"trials": 0}, {"users_per_cell": -1}):
        with pytest.raises(NetworkSpecError, match="users_per_cell and trials must be positive"):
            params(**counts)


def test_cells_follow_the_geometry():
    assert params().cells == params(cells=2).cells == 2
    assert params(geometry="circular").cells == 4
    with pytest.raises(NetworkSpecError, match="linear geometry has 2 cells"):
        params(cells=3)


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
    return rationalize(max(0.0, margin_db) / LEVEL_REFERENCE_DB)


def reference_sample_network(p: ScenarioParams, trial_index: int) -> NetworkSpec:
    """Draw one random user placement and return its strength-level network."""
    rng = _rng(p, trial_index)
    r, r0, n = p.site_radius_m, EXCLUSION_M, p.users_per_cell
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
            assert (got.den, got.levels) == (want.den, want.levels), (p, trial)
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


def fresh_draws(seed: int, trial: int, m: int) -> np.ndarray:
    """The first ``m`` uniforms of a Philox newly keyed with (seed, trial) mod 2**64."""
    key = np.array([seed % 2**64, trial % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(m)


def test_trial_keys_do_not_collide():
    # Negative seeds and seeds of 2**63 or more each draw their own stream;
    # only seeds equal mod 2**64 share one.
    for a, b in ((-1, -2), (-2, -3), (2**63 + 1, 2**63 + 2), (2**64 + 1, 2**64 + 2)):
        draws_a = cellsim._uniforms(a, 0, 3, 4)
        draws_b = cellsim._uniforms(b, 0, 3, 4)
        assert not np.any(draws_a == draws_b), (a, b)
    for a, b in ((-1, 2**64 - 1), (5, 2**64 + 5), (2**63, -(2**63))):
        assert np.array_equal(cellsim._uniforms(a, 7, 2, 9), cellsim._uniforms(b, 7, 2, 9))


def test_trial_key_words_are_seed_and_trial():
    # The packed Philox against numpy's, from one draw to past seven
    # four-word blocks.
    seeds = (-(2**40) - 3, -1, 0, 7, 2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**64 + 5, 2**70 + 3)
    for seed in seeds:
        for trial in (0, 5, 2**64 - 1):
            for m in range(1, 31):
                got = cellsim._uniforms(seed, trial, 1, m)
                assert got.shape == (1, m)
                assert np.array_equal(got[0], fresh_draws(seed, trial, m)), (seed, trial, m)


def test_philox_block_rows_are_freshly_keyed_trials():
    # Every row of a block, across the trial-block boundary and across the
    # wrap of the trial word at 2**64, draws as a newly keyed Philox.
    block = cellsim.TRIAL_BLOCK
    for seed in (-1, 11, 2**63 + 1):
        for first, count in ((block - 3, 6), (2**64 - 2, 4), (0, block + 1)):
            for m in (3, 4, 24):
                rows = cellsim._uniforms(seed, first, count, m)
                assert rows.shape == (count, m)
                for t in sorted({0, 1, count // 2, count - 2, count - 1}):
                    assert np.array_equal(rows[t], fresh_draws(seed, first + t, m)), (seed, first, t)


NO_NUMPY_RANDOM = """
import contextlib, io, sys
from tin_gdof import cellsim, cli
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.suppress(SystemExit):
    sys.argv = ["tin-gdof", "simulate", "--geometry", "circular", "--r-sweep", "80,243",
                "--L", "2", "--trials", "300", "--seed", "5"]
    cli.main()
assert out.getvalue().startswith("r_m,L,"), out.getvalue()
cellsim.sample_network(cellsim.ScenarioParams("linear", 150.0, 2, 1, 3), 4)
sys.exit(int("numpy.random" in sys.modules))
"""


def test_library_never_imports_numpy_random():
    # numpy.random costs every simulating process about 6 MiB; the draws
    # come from the packed Philox instead.
    src = str(Path(cellsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr or "numpy.random was imported"


# -- levels from np.log10, with math.log10 next to a rounding tie ------------------


def math_levels(km: np.ndarray) -> np.ndarray:
    """Integer levels over 10**9 of link lengths in km, each logarithm from
    ``math.log10`` and the rest elementwise in the order of ``path_loss_db``."""
    log10 = np.array([math.log10(x) for x in km.ravel().tolist()]).reshape(km.shape)
    loss = cellsim.PATHLOSS_A_DB + cellsim.PATHLOSS_B_DB * log10
    margin = TX_POWER_DBM - loss - NOISE_FLOOR_DBM
    return np.rint(np.maximum(margin, 0.0) / LEVEL_REFERENCE_DB * 10**9).astype(np.int64)


def sample_distances(monkeypatch, dist: np.ndarray) -> np.ndarray:
    """The levels ``_sample`` makes of the linear link lengths ``dist[t, k, l, i]``
    in meters, in drawn-slot order."""
    count, _, users, _ = dist.shape
    monkeypatch.setattr(cellsim, "_distances", lambda p, first, n: dist)
    lv, order = cellsim._sample(params(users_per_cell=users, trials=count), 0, count)
    drawn = np.empty_like(lv)
    np.put_along_axis(drawn, np.broadcast_to(order[..., None], lv.shape), lv, axis=2)
    return drawn


def test_fast_levels_equal_math_log10_levels(monkeypatch):
    # 10**6 link lengths from the exclusion radius to 3r at r = 243 m, the
    # longest link on a ring of the largest radius of acceptance test 10
    rng = np.random.default_rng(27)
    dist = rng.uniform(EXCLUSION_M, 3 * 243.0, size=(50_000, 2, 5, 2))
    assert np.array_equal(sample_distances(monkeypatch, dist), math_levels(dist / 1000.0))
    # the window covers every difference between the two scaled levels
    km = dist.ravel() / 1000.0
    exact = np.array([math.log10(x) for x in km.tolist()])
    gap = np.abs(cellsim._scaled_levels(np.log10(km)) - cellsim._scaled_levels(exact))
    assert 0 < gap.max() < cellsim._TIE_WINDOW, gap.max()


def scaled_level(distance_m: float, log10=math.log10) -> float:
    return float(cellsim._scaled_levels(np.float64(log10(distance_m / 1000.0))))


def tie_distances(rng: random.Random, ties: int, width: int) -> list[float]:
    """The ``2 * width`` distances around each of ``ties`` distances where the
    ``math.log10`` level drops from ``n + 1`` to ``n``, for random ``n``."""
    out = []
    for _ in range(ties):
        n = rng.randrange(1, 5 * 10**8)  # levels of 35 m to 243 m
        lo, hi = EXCLUSION_M, 250.0  # level 0 at 250 m
        while True:  # bisection to adjacent floats
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if round(scaled_level(mid)) > n else (lo, mid)
        d = lo
        for _ in range(width):
            d = math.nextafter(d, 0.0)
        for _ in range(2 * width):
            out.append(d)
            d = math.nextafter(d, math.inf)
    return out


def test_levels_at_rounding_ties_are_those_of_the_reference(monkeypatch):
    distances = tie_distances(random.Random(28), ties=40, width=16)
    split = [
        d for d in distances
        if round(scaled_level(d)) != round(scaled_level(d, lambda x: float(np.log10(x))))
    ]
    assert split, "no tie where np.log10 and math.log10 round apart"
    dist = np.array(distances).reshape(-1, 2, 4, 2)
    got = sample_distances(monkeypatch, dist)
    p = params()
    want = [[[[_level(p, d) for d in row] for row in cell] for cell in t] for t in dist.tolist()]
    assert (got == np.array(want, dtype=object) * 10**9).all()
    near = [d for d in distances if abs(scaled_level(d) % 1 - 0.5) < cellsim._TIE_WINDOW]
    assert set(split) <= set(near)


# -- the batched condition pass ----------------------------------------------------


def lattice_table(rng: random.Random, cells: int, users: int) -> NetworkSpec:
    """A network of ``cells`` cells of ``users`` users on a lattice of few values.

    As ``lattice_network`` in ``test_conditions.py``, levels come from a
    handful of thirds, sevenths and values over a third random
    denominator, so maxima and the two sides of a condition tie often.
    Cross levels are also halved or quartered, and a random share of them
    is zero, so that the conditions still hold on many networks with five
    users per cell.
    """
    denoms = (3, 7, rng.choice((1, 2, 4, 5, 6, 20)))
    pool = [Fraction(rng.randint(0, 2 * q), q) for q in denoms for _ in range(2)]
    boost = rng.choice((0, 1, 2))  # lifts direct levels so conditions often hold
    quiet = rng.random() ** 0.5  # share of cross levels at zero
    alpha = {}
    for k in range(1, cells + 1):
        for l in range(1, users + 1):
            for i in range(1, cells + 1):
                if i == k:
                    alpha[(User(k, l), i)] = rng.choice(pool) + boost
                elif rng.random() < quiet:
                    alpha[(User(k, l), i)] = 0
                else:
                    alpha[(User(k, l), i)] = rng.choice(pool) / rng.choice((1, 2, 4))
    return NetworkSpec.from_alpha(cells, [users] * cells, alpha)


def test_block_flags_match_condition_flags_on_lattice_tables():
    rng = random.Random(52)
    outcomes = Counter()
    for cells in range(2, 7):
        for users in range(1, 6):
            nets = [lattice_table(rng, cells, users) for _ in range(40)]
            tables = [net.levels for net in nets]
            want = [condition_flags(lv) for lv in tables]
            assert want == [
                (r.convexity_holds, r.optimality_holds) for r in map(evaluate_conditions, nets)
            ]
            # each trial of a block may have its own scale
            scales = [1 if t % 2 else 10**9 for t in range(len(tables))]
            block = np.array(tables, dtype=np.int64) * np.array(scales)[:, None, None, None]
            convexity, optimality = cellsim._condition_flags(block)
            assert list(zip(convexity.tolist(), optimality.tolist())) == want, (cells, users)
            outcomes.update(want)
    assert set(outcomes) == {(True, True), (True, False), (False, False)}
    assert outcomes[True, True] >= 200


def test_block_flags_match_condition_flags_on_sampled_tables():
    rng = random.Random(53)
    outcomes = Counter()
    for _ in range(60):
        geometry = rng.choice(("linear", "circular"))
        # every draw is made for both geometries, in a fixed order
        r, users, seed, cells = (
            rng.uniform(40.0, 300.0), rng.randint(1, 5), rng.getrandbits(32), rng.randint(2, 6)
        )
        p = ScenarioParams(geometry, r, users, 40, seed, cells=2 if geometry == "linear" else cells)
        lv = cellsim._sample(p, 0, p.trials)[0]
        want = [condition_flags(table) for table in lv.tolist()]
        convexity, optimality = cellsim._condition_flags(lv)
        assert list(zip(convexity.tolist(), optimality.tolist())) == want, p
        outcomes.update(want)
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("cells, users", [(2, 1), (3, 1), (6, 1), (2, 6), (3, 4)])
def test_optimality_slot_pairs_match_condition_flags(cells, users):
    # One user per cell has no slot pair; more users than cells have more
    # slot pairs than receivers.
    rng = random.Random(54 + 10 * cells + users)
    tables = [lattice_table(rng, cells, users).levels for _ in range(120)]
    for r, seed in ((90.0, 1), (170.0, 2), (240.0, 3)):
        geometry = "linear" if cells == 2 else "circular"
        p = ScenarioParams(geometry, r, users, 60, seed, cells=cells)
        tables += cellsim._sample(p, 0, p.trials)[0].tolist()
    want = [condition_flags(table) for table in tables]
    convexity, optimality = cellsim._condition_flags(np.array(tables, dtype=np.int64))
    assert list(zip(convexity.tolist(), optimality.tolist())) == want
    assert {opt for _, opt in want} == {True, False}


def test_estimate_probabilities_across_block_boundaries():
    block = cellsim.TRIAL_BLOCK
    # Seeds picked so that both trials at the first boundary meet both
    # condition pairs: a trial dropped or counted twice there shows.
    for p in (
        params(site_radius_m=160.0, trials=block + 1, seed=6),
        params(geometry="circular", cells=3, site_radius_m=200.0, trials=block + 1, seed=34),
    ):
        flags = [
            (r.convexity_holds, r.optimality_holds)
            for r in (evaluate_conditions(sample_network(p, t)) for t in range(p.trials))
        ]
        assert flags[block - 1] == flags[block] == (True, True)
        assert len(set(flags)) > 1
        for trials in (block - 1, block, block + 1):
            pt = estimate_probabilities(replace(p, trials=trials))
            conv = sum(c for c, _ in flags[:trials])
            opt = sum(o for _, o in flags[:trials])
            assert (pt.p_convexity, pt.p_optimality) == (conv / trials, opt / trials), (p, trials)
        # a block's tables are those of its trials sampled one at a time
        lv, order = cellsim._sample(p, block - 2, 4)
        for t in range(4):
            one_lv, one_order = cellsim._sample(p, block - 2 + t, 1)
            assert np.array_equal(lv[t], one_lv[0]) and np.array_equal(order[t], one_order[0])


# -- constants built once per shape, and the block budget ------------------------


def test_uniforms_across_interleaved_shapes():
    # Shapes come and go in a shuffled order, more of them than the cache
    # keeps, so rows are drawn from fresh, cached and rebuilt constants; the
    # trial word wraps at 2**64 inside a block.
    rng = random.Random(71)
    calls = [
        (seed, first, count, m)
        for seed in (-(2**63) - 5, -1, 9, 2**64 + 3)
        for first, count in ((0, 1), (3, 7), (2**64 - 3, 5), (2**64 - 1, 2), (cellsim.TRIAL_BLOCK - 1, 3))
        for m in (1, 4, 5, 13, 24)
    ]
    rng.shuffle(calls)
    for seed, first, count, m in calls:
        rows = cellsim._uniforms(seed, first, count, m)
        assert rows.shape == (count, m)
        for t in range(count):
            assert np.array_equal(rows[t], fresh_draws(seed, first + t, m)), (seed, first, t, m)


def block_networks(p: ScenarioParams, first: int, count: int) -> list[NetworkSpec]:
    """The networks of a block's rows, built as ``sample_network`` builds one."""
    lv, order = cellsim._sample(p, first, count)
    return [
        NetworkSpec(10**9, table, [[s + 1 for s in slots] for slots in drawn])
        for table, drawn in zip(lv.tolist(), order.tolist())
    ]


def test_sample_across_interleaved_rings():
    rng = random.Random(72)
    calls = [
        (ScenarioParams(geometry, r, users, 1, seed, cells=cells), first, count)
        for geometry, cells in [("linear", 2)] + [("circular", c) for c in range(2, 8)]
        for users in (1, 2, 4)
        for r, seed, first, count in ((60.0, 5, 0, 3), (230.0, 77, 40, 2))
    ]
    rng.shuffle(calls)
    for p, first, count in calls:
        for t, got in enumerate(block_networks(p, first, count)):
            want = reference_sample_network(p, first + t)
            assert (got.den, got.levels) == (want.den, want.levels), (p, first + t)
            assert got.slot_provenance == want.slot_provenance, (p, first + t)


def test_cached_arrays_are_read_only():
    layout = cellsim._layout(5, 3)
    arrays = [a for field in layout for a in (field if isinstance(field, tuple) else (field,))]
    assert len(arrays) == len(cellsim._Layout._fields) + 1  # links is an index pair
    for a in arrays:
        assert isinstance(a, np.ndarray) and a.size
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
    # the per-shape Philox constants are Python ints, immutable as such
    assert all(isinstance(word, int) for word in cellsim._lanes(3, 2))


def test_shape_caches_stay_within_their_bound():
    # Within the budget a block has at most LANES_MAX lanes, each cached
    # Philox shape keeps six ints of 16 bytes a lane, and a cached layout
    # stays below LAYOUT_MAX bytes; both caches keep _SHAPES entries.
    lanes_max, layout_max = 2048, 96 * 2**10
    for cells in range(2, 41):
        for users in range(1, 65):
            if cellsim._trial_entries(cells, users) <= cellsim.BLOCK_ENTRIES:
                assert cellsim._block_trials(cells, users) * -(-cells * users // 2) <= lanes_max
    bound = cellsim._SHAPES * (6 * 16 * lanes_max + layout_max)
    shapes = [(cells, users) for cells in range(2, 41) for users in (1, 2, 4, 8)]
    shapes = [s for s in shapes if cellsim._trial_entries(*s) <= cellsim.BLOCK_ENTRIES]
    random.Random(73).shuffle(shapes)
    shapes = shapes[:50]
    assert len(shapes) == 50
    cellsim._lanes.cache_clear()
    cellsim._layout.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cells, users in shapes:
            count = cellsim._block_trials(cells, users)
            cellsim._uniforms(1, 0, count, 2 * cells * users)
            cellsim._layout(cells, users)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cellsim._lanes.cache_info().currsize == cellsim._SHAPES
    assert cellsim._layout.cache_info().currsize == cellsim._SHAPES
    assert 0 < held <= bound, (held, bound)


def test_every_layout_within_the_budget_is_small():
    # The arrays of a cached layout stay within the 17 KB that the _SHAPES
    # comment states for every shape within the budget, up to 128 users on
    # 2 cells, the most slot pairs.
    largest = 0
    for cells in range(2, 41):
        for users in range(1, 129):
            if cellsim._trial_entries(cells, users) <= cellsim.BLOCK_ENTRIES:
                layout = cellsim._layout.__wrapped__(cells, users)
                arrays = (layout.ids, layout.step, layout.own, *layout.links, layout.pairs)
                largest = max(largest, sum(a.nbytes for a in arrays))
    assert cellsim._trial_entries(2, 128) == cellsim.BLOCK_ENTRIES
    assert 0 < largest <= 17_000, largest


def test_scenario_beyond_the_block_budget_is_refused_before_any_allocation():
    tracemalloc.start()
    try:
        for cells, users in ((10**15, 1), (4, 10**12), (41, 1), (24, 5)):
            with pytest.raises(GuardExceededError, match="block budget"):
                ScenarioParams("circular", 100.0, users, 10**9, 3, cells=cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    # the largest rings within the budget are accepted
    ScenarioParams("circular", 100.0, 1, 1, 3, cells=40)
    ScenarioParams("circular", 100.0, 5, 1, 3, cells=23)


def test_block_memory_is_bounded_on_a_large_ring(monkeypatch):
    # 20 cells of 5 users peaked at 44 MiB for 300 trials in blocks of
    # TRIAL_BLOCK; within the budget a block peaks at about three arrays of
    # BLOCK_ENTRIES int64 entries, whatever the ring.
    p = ScenarioParams("circular", 225.0, 5, 300, 8, cells=20)
    estimate_probabilities(replace(p, trials=1))
    tracemalloc.start()
    try:
        point = estimate_probabilities(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * cellsim.BLOCK_ENTRIES, peak
    # the block size changes no count
    monkeypatch.setattr(cellsim, "BLOCK_ENTRIES", 64 * cellsim._trial_entries(20, 5))
    assert cellsim._block_trials(20, 5) == 64
    assert estimate_probabilities(p) == point
    assert 0 < point.p_optimality < point.p_convexity < 1
