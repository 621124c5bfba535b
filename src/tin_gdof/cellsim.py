"""Monte Carlo evaluation of the TIN conditions in one-dimensional cell arrays.

Two geometries:

* ``linear``: two facing sectors of adjacent sites on a line.  Each base
  station covers a segment of length ``r`` pointing at the other; users
  behind a directional antenna cause no interference, so the two facing
  cells form a self-contained network.
* ``circular``: K omnidirectional sites on a ring of segments, each covering
  a segment of length 2r centered at the site; interference is limited to
  the adjacent cells (wraparound), distances are measured along the ring.

Users are placed uniformly on their cell segment, excluding a protection
interval of radius ``EXCLUSION_M`` around the site.  Link budgets follow a
log-distance path-loss law; levels are the dB margin above the noise floor,
clipped at zero and divided by a fixed reference (condition outcomes do not
depend on the reference, by degree-1 homogeneity of the conditions).

Trials are keyed by (seed, trial index) through a counter-based generator,
so results are independent of evaluation order and safely parallelizable.

Trials are sampled and checked in blocks, on integers: one Philox4x64-10
pass over Python ints draws every uniform of a block, one sampler turns
them into an int64 table of levels over ``10**RATIONALIZE_DIGITS`` (the
rounding ``model.rationalize`` applies to floats) with every cell's slots
sorted by direct level, and one integer pass returns both condition flags
of every trial.  The draws are bit for bit those of numpy's ``Philox``,
which the library never imports.  ``estimate_probabilities`` builds no
``NetworkSpec`` and no ``Fraction``; ``sample_network`` runs the same
sampler on one trial and hands its table to ``NetworkSpec`` as it is,
which gives the network ``NetworkSpec.from_alpha`` makes of those levels.

What depends only on a block's shape is built once and kept, read-only, in
two small caches bounded by ``_SHAPES``: the Philox lane constants of
``count`` trials of ``blocks`` counters (``_lanes``), and the ring's index
arrays, its own-cell mask and the slot pairs of the optimality check for
``cells`` cells of ``users`` users (``_layout``).  A block holds at most
``TRIAL_BLOCK`` trials, and fewer on large rings, so that its arrays stay
within ``BLOCK_ENTRIES`` entries; a scenario one of whose trials alone
exceeds that budget is refused with ``GuardExceededError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from .errors import GuardExceededError, NetworkSpecError, TinGdofError
from .model import RATIONALIZE_DIGITS, NetworkSpec, _index, _real

#: Radio setup of every scenario: transmit power and noise floor in dBm, the
#: path-loss model PL(d) = A + B log10(d_km) in dB, and the radius in meters
#: of the protection interval around each site that no user is placed in.
TX_POWER_DBM = 23.0
NOISE_FLOOR_DBM = -102.0
PATHLOSS_A_DB = 148.1
PATHLOSS_B_DB = 37.6
EXCLUSION_M = 35.0

#: Fixed positive reference converting dB-above-noise into level exponents.
#: Any positive value yields the same condition outcomes.
LEVEL_REFERENCE_DB = 60.0

#: Levels are rounded to integers over this scale before exact checks, as
#: ``model.rationalize`` rounds floats, so ``sample_network`` matches it.
_LEVEL_SCALE = 10**RATIONALIZE_DIGITS


def path_loss_db(d_km: float) -> float:
    """Path loss PL(d) in dB for a distance in kilometers, which goes
    through the real-parameter rule (``model._real``) and must be positive."""
    d_km = _real(d_km, "distance")
    if d_km <= 0:
        raise NetworkSpecError("distance must be positive")
    return PATHLOSS_A_DB + PATHLOSS_B_DB * math.log10(d_km)


@dataclass(frozen=True)
class ScenarioParams:
    """One Monte Carlo scenario, in the radio setup of the module constants.

    The counts and the seed go through the count rule (``model._index``),
    the site radius through the real-parameter rule (``model._real``); the
    converted values are stored."""

    geometry: str  # "linear" or "circular"
    site_radius_m: float
    users_per_cell: int
    trials: int
    seed: int
    cells: int | None = None  # ring size, 4 if None; the line has 2 cells only

    def __post_init__(self):
        if self.geometry not in ("linear", "circular"):
            raise NetworkSpecError(f"unknown geometry {self.geometry!r}")
        linear = self.geometry == "linear"
        counts = {
            "users_per_cell": self.users_per_cell,
            "trials": self.trials,
            "seed": self.seed,
            "cells": (2 if linear else 4) if self.cells is None else self.cells,
        }
        for name, value in counts.items():
            object.__setattr__(self, name, _index(value, name))
        object.__setattr__(self, "site_radius_m", _real(self.site_radius_m, "site_radius_m"))
        if linear and self.cells != 2:
            raise NetworkSpecError(f"the linear geometry has 2 cells, got cells={self.cells!r}")
        if not EXCLUSION_M < self.site_radius_m:
            raise NetworkSpecError(
                f"site radius must exceed the {EXCLUSION_M:g} m exclusion radius, "
                f"got {self.site_radius_m!r} m"
            )
        if self.users_per_cell < 1 or self.trials < 1:
            raise NetworkSpecError("users_per_cell and trials must be positive")
        if not linear and self.cells < 2:
            raise NetworkSpecError("circular geometry needs at least 2 cells")
        extent = 2 * self.site_radius_m * (1 if linear else self.cells)
        if not math.isfinite(extent):
            raise NetworkSpecError(
                f"site radius {self.site_radius_m!r} m makes the {self.geometry} layout "
                "longer than the float range"
            )
        entries = _trial_entries(self.cells, self.users_per_cell)
        if entries > BLOCK_ENTRIES:
            raise GuardExceededError(
                f"{self.cells} cells of {self.users_per_cell} users need {entries} "
                f"array entries per trial, above the block budget ({BLOCK_ENTRIES})"
            )


#: Trials sampled and checked together at most, so that a call's memory
#: does not grow with ``trials``.
TRIAL_BLOCK = 256

#: Entry budget of a block.  A block holds ``_block_trials`` trials: at most
#: ``TRIAL_BLOCK``, and no more than keep its largest array, ``_trial_entries``
#: per trial, within ``BLOCK_ENTRIES`` int64 entries (512 KiB).  A block peaks
#: at about three such arrays whatever the ring; ``tracemalloc`` reads these
#: peaks for one call at any trial count: 0.14 MiB on the line with 2 users,
#: 0.8 MiB on the 4-cell ring with 3 users (the largest scenario of
#: acceptance test 10, in blocks of 256 as before), 1.1 MiB with 5 users
#: (2.0 MiB in blocks of 256), 0.8 MiB on 10 cells with 5 users (11.3 MiB),
#: 0.5 MiB on 20 cells with 5 users (44.0 MiB) and 1.0 MiB on 40 cells of 1
#: user.  ``ScenarioParams`` refuses with ``GuardExceededError`` a scenario
#: one of whose trials exceeds the budget, such as 41 cells of 1 user or 24
#: cells of 5 users, before any array is allocated.
BLOCK_ENTRIES = 2**16

#: Shapes whose constants ``_lanes`` and ``_layout`` each keep, least
#: recently used first out.  Within the budget a block has at most 2,048
#: Philox lanes, and ``_lanes`` keeps six ints a shape, about 103 bytes a
#: lane (Python stores 30 bits in 4 bytes), so at most 1.7 MiB; a
#: ``_layout`` is below 96 KiB (its arrays hold at most 17 KB: a ring has at
#: most 40 cells, and its slot pairs at most 128 * 127 one-byte slots), so
#: at most 0.75 MiB.  The 30 points of acceptance test 10 use 6 shapes of
#: at most 120 lanes.
_SHAPES = 8


def _trial_entries(cells: int, users: int) -> int:
    """Entries per trial of a block's largest array, at most: ``users**2 *
    cells**2`` for the optimality pair's slot pairs (both slots of each of
    ``users * (users - 1) / 2`` pairs, per cell and receiver),
    ``users * cells**3`` for the convexity pair's cross-cell terms."""
    return cells * cells * users * max(cells, users)


def _block_trials(cells: int, users: int) -> int:
    """Trials per block of ``cells`` cells of ``users`` users, within the budget."""
    return min(TRIAL_BLOCK, BLOCK_ENTRIES // _trial_entries(cells, users))


_WORD = 2**64 - 1
_LANE_BYTES = 16
#: Philox4x64 multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

#: Below every level, and never the maximum over two or more cells.
_LEAST = np.iinfo(np.int64).min


def _packed(words) -> int:
    """One int holding ``words``, one per 128-bit lane from bit 0."""
    return int.from_bytes(b"".join(w.to_bytes(_LANE_BYTES, "little") for w in words), "little")


@functools.lru_cache(maxsize=_SHAPES)
def _lanes(count: int, blocks: int) -> tuple[int, ...]:
    """Philox lane constants of ``count`` trials of ``blocks`` counters each:
    the lane mask (2**64 - 1 in every lane), the counter words 1..blocks of
    every trial, the all-ones pattern (1 in every lane), the trial ramp (t
    in the lanes of trial t) and both key increments in every lane."""
    ones = _packed([1] * (count * blocks))
    return (
        _WORD * ones,
        _packed(list(range(1, blocks + 1)) * count),
        ones,
        _packed([t for t in range(count) for _ in range(blocks)]),
        _PHILOX_W[0] * ones,
        _PHILOX_W[1] * ones,
    )


def _uniforms(seed: int, first: int, count: int, m: int) -> np.ndarray:
    """Standard uniforms of ``count`` consecutive trials, ``m`` per trial.

    Row ``t`` holds the first ``m`` doubles of trial ``first + t``: those of
    numpy's ``Generator(Philox(key=(seed, first + t))).random``, with both
    key words taken mod 2**64, counters from 1 and a double as
    ``(x >> 11) * 2**-53``.  Philox4x64-10 runs once over every counter of
    the block: each counter's four words sit in four Python ints, one lane
    every 128 bits, so one multiply by a 64-bit constant yields every
    lane's full 128-bit product, and ``>> 64`` with the lane mask splits off
    the high words.  Words keep junk above bit 64 of their lane where the
    next step masks it anyway: the low words of a product, and the keys,
    which start below 2**65 (``first mod 2**64`` plus the trial's offset in
    the block) and grow by at most 10 increments.  The lane constants of a
    shape come from ``_lanes``, so a call packs no words: each key is a
    multiple of the all-ones lane pattern, plus the trial ramp for the
    trial word.
    """
    blocks = -(-m // 4)
    mask, x0, ones, ramp, w0, w1 = _lanes(count, blocks)
    k0 = (seed & _WORD) * ones
    k1 = (first & _WORD) * ones + ramp
    m0, m1 = _PHILOX_M
    x1 = x2 = x3 = 0
    for _ in range(_PHILOX_ROUNDS):
        p0, p1 = m0 * x0, m1 * x2
        x0 = ((p1 >> 64) ^ x1 ^ k0) & mask
        x2 = ((p0 >> 64) ^ x3 ^ k1) & mask
        x1, x3 = p1, p0
        k0 += w0
        k1 += w1
    size = count * blocks * _LANE_BYTES
    raw = (x0 | (x1 & mask) << 64).to_bytes(size, "little") + (
        x2 | (x3 & mask) << 64
    ).to_bytes(size, "little")
    bits = np.frombuffer(raw, dtype="<u8").reshape(2, count, blocks, 2)
    bits = bits.transpose(1, 2, 0, 3).reshape(count, 4 * blocks)[:, :m]
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


class _Layout(NamedTuple):
    """Index arrays and masks of ``cells`` cells of ``users`` users, read-only."""

    ids: np.ndarray  # 0, ..., cells - 1
    step: np.ndarray  # step[k, i] = i - k
    own: np.ndarray  # own[k, i]: k == i
    links: tuple[np.ndarray, np.ndarray]  # (k, i) of every link that carries signal on the ring
    # pairs[:, p] = (s, w), the p-th slot pair with s > w, that is, a stronger
    # slot and a weaker one once slots ascend by direct level; the smallest
    # unsigned type that holds a slot
    pairs: np.ndarray


@functools.lru_cache(maxsize=_SHAPES)
def _layout(cells: int, users: int) -> _Layout:
    ids = np.arange(cells)
    step = ids[None, :] - ids[:, None]
    # Receivers a cell's users reach: its own and the adjacent ones on the ring.
    reach = np.minimum(np.abs(step), cells - np.abs(step)) <= 1
    own = np.eye(cells, dtype=bool)
    pairs = np.array(np.tril_indices(users, -1), dtype=np.min_scalar_type(users))
    layout = _Layout(ids, step, own, np.nonzero(reach), pairs)
    for a in (ids, step, own, *layout.links, pairs):
        a.flags.writeable = False
    return layout


def _distances(p: ScenarioParams, first: int, count: int):
    """Link lengths in meters of ``count`` trials from ``first``, before sorting.

    ``dist[t, k, l, i]`` is the distance from drawn slot ``l + 1`` of cell
    ``k + 1`` to the site of cell ``i + 1`` in trial ``first + t``; only the
    ``_layout(cells, users).links`` carry signal, which on the line are all
    four (its two cells reach each other as on a 2-cell ring).  Each
    uniform is mapped as numpy's ``uniform(a, b)`` maps it, ``a + (b - a) * u``,
    and every step is elementwise IEEE arithmetic in the order of one scalar
    ``uniform`` call per number.
    """
    r, r0, n = p.site_radius_m, EXCLUSION_M, p.users_per_cell

    if p.geometry == "linear":
        # Site 1 at 0 facing right, site 2 at 2r facing left; both sectors
        # cover (0, r) resp. (r, 2r), users keep r0 clear of their site.
        u = _uniforms(p.seed, first, count, 2 * n).reshape(count, n, 2)
        x = r0 + (r - r0) * u[:, :, 0]
        a = r + 0.0
        y = a + (2 * r - r0 - a) * u[:, :, 1]
        dist = np.empty((count, 2, n, 2))
        dist[:, 0, :, 0], dist[:, 0, :, 1] = x, 2 * r - x
        dist[:, 1, :, 0], dist[:, 1, :, 1] = y, 2 * r - y
        return dist

    cells = p.cells
    ring = _layout(cells, n)
    circumference = 2 * r * cells
    u = _uniforms(p.seed, first, count, 2 * cells * n).reshape(count, cells, n, 2)
    offset = np.where(u[..., 0] < 0.5, 1.0, -1.0) * (r0 + (r - r0) * u[..., 1])
    # signed ring distance, folded to the shorter arc
    raw = (2 * r * ring.step[:, None, :] - offset[..., None]) % circumference
    dist = np.where(
        ring.own[:, None, :], np.abs(offset)[..., None], np.minimum(raw, circumference - raw)
    )
    return dist


#: Half-width of the window around a rounding tie (a scaled level ``v`` with
#: ``|v - rint(v)| > 1/2 - _TIE_WINDOW``) inside which ``_sample`` takes the
#: logarithm from ``math.log10`` instead of ``np.log10``.  Outside it both
#: logarithms round to the same integer level, since their scaled levels
#: differ by less than 3e-6:
#:
#: * Both levels are 0 unless one margin is positive, which needs a path
#:   loss below 125 dB, so log10(km) < -0.6; users keep ``EXCLUSION_M`` from
#:   their site, so log10(km) >= log10(0.035) > -1.5, and an ulp of the
#:   logarithm is at most 2**-52.
#: * numpy's float64 ``log10`` is within 1 ulp of the correctly rounded
#:   result (tolerance 1 in its accuracy table
#:   ``umath-validation-set-log10.csv``), so within 1.5 ulp of log10;
#:   glibc's, which ``math.log10`` calls, is within 2 ulp ("Errors in Math
#:   Functions", glibc manual).  The two differ by at most 3.5 * 2**-52,
#:   and the exact map from the logarithm to the scaled level has slope
#:   ``PATHLOSS_B_DB / LEVEL_REFERENCE_DB * _LEVEL_SCALE`` < 6.3e8, which
#:   makes at most 4.9e-7.
#: * Per logarithm, the four dB operations of ``_scaled_levels`` (the
#:   product, the sum and two differences) give results below 256 in
#:   magnitude, each rounded by at most 2**-46, and scaled by 10**9 / 60:
#:   at most 9.5e-7; the quotient by 60 (below 1) rounds by at most 2**-54,
#:   5.6e-8 once scaled; the product by 10**9 (below 2**30) by at most
#:   2**-23, 1.2e-7.  That is 1.13e-6 per logarithm, 2.26e-6 for both.
#:
#: The window is the sum, 2.75e-6, rounded up to the next power of ten; the
#: products of two rounding errors that the sum leaves out are below
#: 1e-12.  The test reads ``v - rint(v)``, which is exact.
_TIE_WINDOW = 1e-5


def _scaled_levels(log10: np.ndarray) -> np.ndarray:
    """``max(margin, 0) / LEVEL_REFERENCE_DB * _LEVEL_SCALE`` from the
    logarithms of link lengths in km, in the order of ``path_loss_db``."""
    margin_db = TX_POWER_DBM - (PATHLOSS_A_DB + PATHLOSS_B_DB * log10) - NOISE_FLOOR_DBM
    return np.maximum(margin_db, 0.0) / LEVEL_REFERENCE_DB * _LEVEL_SCALE


def _sample(p: ScenarioParams, first: int, count: int):
    """Levels of ``count`` random user placements, from trial ``first``.

    Returns ``(lv, order)`` as int64 arrays: ``lv[t, k, l, i]`` is the level
    of slot ``l + 1`` of cell ``k + 1`` at the receiver of cell ``i + 1`` in
    trial ``first + t``, an integer over ``_LEVEL_SCALE`` (the rounding
    ``model.rationalize`` applies to floats), with each cell's slots
    stable-sorted by direct level; ``order[t, k, s]`` is the drawn slot
    stored as slot ``s + 1``, counted from 0.

    The levels are those of ``math.log10``, as in ``path_loss_db``: one
    ``np.log10`` pass gives the scaled levels, and the entries within
    ``_TIE_WINDOW`` of a rounding tie, where ``np.log10``'s last place could
    change the integer, are computed again from ``math.log10``.  The rest is
    elementwise IEEE arithmetic in the order of ``path_loss_db``, and
    ``np.rint`` rounds half to even like ``round``.
    """
    dist = _distances(p, first, count)
    k, i = _layout(p.cells, p.users_per_cell).links
    km = dist[:, k, :, i] / 1000.0  # km[link, t, l]
    scaled = _scaled_levels(np.log10(km))
    levels = np.rint(scaled)
    near = np.abs(scaled - levels) > 0.5 - _TIE_WINDOW
    if near.any():
        log10 = np.array([math.log10(x) for x in km[near].tolist()])
        levels[near] = np.rint(_scaled_levels(log10))
    lv = np.zeros(dist.shape, dtype=np.int64)
    lv[:, k, :, i] = levels
    direct = np.diagonal(lv, axis1=1, axis2=3)  # direct[t, l, k]
    order = np.argsort(direct, axis=1, kind="stable").transpose(0, 2, 1)
    return lv[np.arange(count)[:, None, None], np.arange(lv.shape[1])[:, None], order], order


def _convexity_flags(lv: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Whether the convexity pair holds, per trial; see ``_condition_flags``."""
    count, cells, users, _ = lv.shape
    layout = _layout(cells, users)
    ids = layout.ids
    slack = direct[..., None] - lv  # slack[t, i, l, j] = direct - lv[..., j]
    # per cell: slack does not fall from a weaker slot to the next
    mac = (slack[:, :, 1:] >= slack[:, :, :-1]).reshape(count, -1).all(1)
    # cross-cell: interferer v of cell k != i counts v[i] - v[j] toward
    # cell j, or v[i] when it sits in cell j itself
    spill = np.where(layout.own[:, None], 0, lv)
    terms = (lv[..., None] - spill[:, :, :, None]).max(axis=2)  # terms[t, k, i, j]
    terms[:, ids, ids] = _LEAST  # no interferer from the receiver's own cell
    worst = terms.max(axis=1)  # worst[t, i, j]; 0 at j == i, as is slack there
    cross = (slack >= worst[:, :, None]).reshape(count, -1).all(1)
    return mac & cross


def _optimality_flags(lv: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Whether the optimality pair holds, per trial; see ``_condition_flags``."""
    count, cells, users, _ = lv.shape
    layout = _layout(cells, users)
    # per cell: every stronger slot s against every weaker slot w, toward
    # every other cell's receiver
    paired = lv.take(layout.pairs, axis=2)  # [t, i, 0 or 1, p, j]: slot s or w of pair p
    strong, weak = paired[:, :, 0], paired[:, :, 1]
    paired_direct = direct.take(layout.pairs, axis=2)  # [t, i, 0 or 1, p]
    gap = (paired_direct[:, :, 0] - paired_direct[:, :, 1])[..., None]
    held = (gap >= np.minimum(strong, 2 * strong - weak)) | layout.own[:, None]
    mac = held.reshape(count, -1).all(1)
    # cross-cell: caused toward any other cell plus the largest level
    # received from any other cell's user
    received = np.where(layout.own, _LEAST, lv.max(axis=2)).max(axis=1)  # [t, i]
    caused = np.where(layout.own[:, None], _LEAST, lv).max(axis=3)  # [t, i, l]
    return mac & (direct >= caused + received[:, :, None]).reshape(count, -1).all(1)


def _condition_flags(lv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``conditions.condition_flags`` of every table of a block, as two bool arrays.

    ``lv[t, k, l, i]`` is an int64 table per trial ``t`` as ``_sample``
    returns it: at least two cells, equal users per cell, slots ascending
    by direct level.  The checks are those of ``conditions``, rearranged
    without changing any integer outcome: a maximum on the right of a
    condition becomes one condition per term.  The per-cell convexity
    condition of slot s against every weaker slot w then says that
    ``direct - lv[..., j]`` does not fall from w to s, so it is checked on
    neighbouring slots only.

    The per-cell optimality condition of a stronger slot s against a
    weaker slot w toward receiver j is checked once per slot pair s > w,
    gathered by ``_Layout.pairs``, at every receiver but the own cell's.

    Every side is a sum or difference of at most three levels, or
    ``2 * strong - weak``.  A link is at least 5e-324 km long, so a level is
    at most about 12,133 dB / 60 * 10**9, below 2.1e11, and no side comes
    near 2**63.  So the cross-cell convexity condition ``direct >= lv +
    worst`` can be checked as ``direct - lv >= worst``, on the difference
    the per-cell condition also reads.  Optimality without convexity in any trial raises
    ``TinGdofError``, as in ``condition_flags``.
    """
    direct = np.diagonal(lv, axis1=1, axis2=3).transpose(0, 2, 1)  # direct[t, i, l]
    convexity, optimality = _convexity_flags(lv, direct), _optimality_flags(lv, direct)
    if np.any(optimality & ~convexity):
        raise TinGdofError("the optimality conditions hold but the convexity conditions do not")
    return convexity, optimality


def sample_network(p: ScenarioParams, trial_index: int) -> NetworkSpec:
    """Draw one random user placement and return its strength-level network."""
    lv, order = _sample(p, _index(trial_index, "trial_index"), 1)
    provenance = [[s + 1 for s in slots] for slots in order[0].tolist()]
    return NetworkSpec(_LEVEL_SCALE, lv[0].tolist(), provenance)


@dataclass(frozen=True)
class ProbabilityPoint:
    r_m: float
    users_per_cell: int
    p_convexity: float
    p_optimality: float
    trials: int
    ci95_convexity: float
    ci95_optimality: float

    @property
    def ci95_halfwidth(self) -> float:
        return max(self.ci95_convexity, self.ci95_optimality)


@dataclass(frozen=True)
class ProbabilityCurve:
    points: tuple[ProbabilityPoint, ...] = field(default_factory=tuple)


def _ci95(p_hat: float, trials: int) -> float:
    return 1.96 * math.sqrt(p_hat * (1 - p_hat) / trials)


def estimate_probabilities(p: ScenarioParams) -> ProbabilityPoint:
    """Empirical probabilities that each condition pair holds, with 95% CIs.

    Counted jointly per trial on the integer level tables, one block of
    ``_block_trials`` trials at a time; no network is built.  A trial where
    the optimality pair holds but the convexity pair does not would be a
    bug, and ``_condition_flags`` raises on it.
    """
    block = _block_trials(p.cells, p.users_per_cell)
    conv = opt = 0
    for first in range(0, p.trials, block):
        convexity, optimality = _condition_flags(
            _sample(p, first, min(block, p.trials - first))[0]
        )
        conv += int(convexity.sum())
        opt += int(optimality.sum())
    pc, po = conv / p.trials, opt / p.trials
    return ProbabilityPoint(
        p.site_radius_m,
        p.users_per_cell,
        pc,
        po,
        p.trials,
        _ci95(pc, p.trials),
        _ci95(po, p.trials),
    )


def sweep(base: ScenarioParams, radii_m: Iterable[float]) -> ProbabilityCurve:
    """Estimate probabilities across site radii with otherwise fixed parameters."""
    points = [
        estimate_probabilities(replace(base, site_radius_m=r))
        for r in radii_m
    ]
    return ProbabilityCurve(tuple(points))
