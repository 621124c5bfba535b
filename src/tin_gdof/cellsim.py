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
interval of radius ``r0`` around the site.  Link budgets follow a log-
distance path-loss law; levels are the dB margin above the noise floor,
clipped at zero and divided by a fixed reference (condition outcomes do not
depend on the reference, by degree-1 homogeneity of the conditions).

Trials are keyed by (seed, trial index) through a counter-based generator,
so results are independent of evaluation order and safely parallelizable.

Trials are sampled and checked in blocks of ``TRIAL_BLOCK``, on integers:
one Philox4x64-10 pass over Python ints draws every uniform of a block,
one sampler turns them into an int64 table of levels over
``10**LEVEL_DIGITS`` (the rounding ``model.rationalize`` applies to floats)
with every cell's slots sorted by direct level, and one integer pass
returns both condition flags of every trial.  The draws are bit for bit
those of numpy's ``Philox``, which the library never imports.
``estimate_probabilities`` builds no ``NetworkSpec`` and no ``Fraction``;
``sample_network`` runs the same sampler on one trial and returns the
network, equal to the one ``NetworkSpec.from_alpha`` makes of those levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NetworkSpecError, TinGdofError
from .model import NetworkSpec, User

#: Radio setup of every scenario: transmit power and noise floor in dBm, and
#: the path-loss model PL(d) = A + B log10(d_km) in dB.
TX_POWER_DBM = 23.0
NOISE_FLOOR_DBM = -102.0
PATHLOSS_A_DB = 148.1
PATHLOSS_B_DB = 37.6

#: Fixed positive reference converting dB-above-noise into level exponents.
#: Any positive value yields the same condition outcomes.
LEVEL_REFERENCE_DB = 60.0

#: Levels are rounded to integers over 10**LEVEL_DIGITS before exact checks.
LEVEL_DIGITS = 9
_LEVEL_SCALE = 10**LEVEL_DIGITS


def path_loss_db(d_km: float) -> float:
    """Path loss PL(d) in dB for a distance in kilometers."""
    if d_km <= 0:
        raise ValueError("distance must be positive")
    return PATHLOSS_A_DB + PATHLOSS_B_DB * math.log10(d_km)


@dataclass(frozen=True)
class ScenarioParams:
    """One Monte Carlo scenario, in the radio setup of the module constants."""

    geometry: str  # "linear" or "circular"
    site_radius_m: float
    users_per_cell: int
    trials: int
    seed: int
    cells: int = 4  # circular geometry only; linear is always 2 cells
    exclusion_m: float = 35.0

    def __post_init__(self):
        if self.geometry not in ("linear", "circular"):
            raise NetworkSpecError(f"unknown geometry {self.geometry!r}")
        if not (0 <= self.exclusion_m < self.site_radius_m):
            raise NetworkSpecError("need 0 <= exclusion radius < site radius")
        if self.users_per_cell < 1 or self.trials < 1:
            raise NetworkSpecError("users_per_cell and trials must be positive")
        if self.geometry == "circular" and self.cells < 2:
            raise NetworkSpecError("circular geometry needs at least 2 cells")


#: Trials sampled and checked together, so that a call's memory does not
#: grow with ``trials``.  Every array of a block has at most
#: ``TRIAL_BLOCK * cells**2 * users_per_cell**2`` entries, and a block peaks
#: at about three such arrays.  Sized from the peaks that ``tracemalloc``
#: reads for one call at any trial count: 0.8 MiB on the 4-cell ring with 3
#: users per cell (the largest scenario of acceptance test 10), 2 MiB with 5
#: users, 11 MiB on 10 cells with 5 users.
TRIAL_BLOCK = 256

_WORD = 2**64 - 1
_LANE_BYTES = 16
#: Philox4x64 multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

#: Below every level, and never the maximum over two or more cells.
_LEAST = np.iinfo(np.int64).min


def _packed(words, repeat: int = 1) -> int:
    """One int holding ``words`` ``repeat`` times over, one per 128-bit lane from bit 0."""
    return int.from_bytes(
        b"".join(w.to_bytes(_LANE_BYTES, "little") for w in words) * repeat, "little"
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
    which grow by at most 10 increments.
    """
    blocks = -(-m // 4)
    lanes = count * blocks
    mask = _packed([_WORD], lanes)
    x0 = _packed(range(1, blocks + 1), count)
    k0 = _packed([seed & _WORD], lanes)
    k1 = _packed([(first + t) & _WORD for t in range(count) for _ in range(blocks)])
    w0, w1 = (_packed([w], lanes) for w in _PHILOX_W)
    m0, m1 = _PHILOX_M
    x1 = x2 = x3 = 0
    for _ in range(_PHILOX_ROUNDS):
        p0, p1 = m0 * x0, m1 * x2
        x0 = ((p1 >> 64) ^ x1 ^ k0) & mask
        x2 = ((p0 >> 64) ^ x3 ^ k1) & mask
        x1, x3 = p1, p0
        k0 += w0
        k1 += w1
    size = lanes * _LANE_BYTES
    raw = (x0 | (x1 & mask) << 64).to_bytes(size, "little") + (
        x2 | (x3 & mask) << 64
    ).to_bytes(size, "little")
    bits = np.frombuffer(raw, dtype="<u8").reshape(2, count, blocks, 2)
    bits = bits.transpose(1, 2, 0, 3).reshape(count, 4 * blocks)[:, :m]
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _distances(p: ScenarioParams, first: int, count: int):
    """Link lengths in meters of ``count`` trials from ``first``, before sorting.

    Returns ``(dist, reach)``: ``dist[t, k, l, i]`` is the distance from drawn
    slot ``l + 1`` of cell ``k + 1`` to the site of cell ``i + 1`` in trial
    ``first + t``; only links with ``reach[k, i]`` carry signal.  Each
    uniform is mapped as numpy's ``uniform(a, b)`` maps it, ``a + (b - a) * u``,
    and every step is elementwise IEEE arithmetic in the order of one scalar
    ``uniform`` call per number.
    """
    r, r0, n = p.site_radius_m, p.exclusion_m, p.users_per_cell

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
        return dist, np.ones((2, 2), dtype=bool)

    cells = p.cells
    circumference = 2 * r * cells
    u = _uniforms(p.seed, first, count, 2 * cells * n).reshape(count, cells, n, 2)
    offset = np.where(u[..., 0] < 0.5, 1.0, -1.0) * (r0 + (r - r0) * u[..., 1])
    ids = np.arange(cells)
    step = ids[None, :] - ids[:, None]  # step[k, i] = i - k
    # Receivers a cell's users reach: its own and the adjacent ones on the ring.
    reach = np.minimum(np.abs(step), cells - np.abs(step)) <= 1
    # signed ring distance, folded to the shorter arc
    raw = (2 * r * step[:, None, :] - offset[..., None]) % circumference
    dist = np.where(
        np.eye(cells, dtype=bool)[:, None, :],
        np.abs(offset)[..., None],
        np.minimum(raw, circumference - raw),
    )
    return dist, reach


def _sample(p: ScenarioParams, first: int, count: int):
    """Levels of ``count`` random user placements, from trial ``first``.

    Returns ``(lv, order)`` as int64 arrays: ``lv[t, k, l, i]`` is the level
    of slot ``l + 1`` of cell ``k + 1`` at the receiver of cell ``i + 1`` in
    trial ``first + t``, an integer over ``10**LEVEL_DIGITS`` (the rounding
    ``model.rationalize`` applies to floats), with each cell's slots
    stable-sorted by direct level; ``order[t, k, s]`` is the drawn slot
    stored as slot ``s + 1``, counted from 0.

    ``np.log10`` may differ from ``math.log10`` in the last place, so the
    logarithms are ``math.log10``'s; the rest is elementwise IEEE arithmetic
    in the order of ``path_loss_db``, and ``np.rint`` rounds half to even
    like ``round``.
    """
    dist, reach = _distances(p, first, count)
    k, i = np.nonzero(reach)
    km = dist[:, k, :, i] / 1000.0  # km[link, t, l]
    log10 = np.fromiter(map(math.log10, km.ravel().tolist()), dtype=np.float64, count=km.size)
    margin_db = TX_POWER_DBM - (PATHLOSS_A_DB + PATHLOSS_B_DB * log10) - NOISE_FLOOR_DBM
    lv = np.zeros(dist.shape, dtype=np.int64)
    levels = np.rint(np.maximum(margin_db, 0.0) / LEVEL_REFERENCE_DB * _LEVEL_SCALE)
    lv[:, k, :, i] = levels.reshape(km.shape)
    direct = np.diagonal(lv, axis1=1, axis2=3)  # direct[t, l, k]
    order = np.argsort(direct, axis=1, kind="stable").transpose(0, 2, 1)
    return lv[np.arange(count)[:, None, None], np.arange(lv.shape[1])[:, None], order], order


def _convexity_flags(lv: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Whether the convexity pair holds, per trial; see ``_condition_flags``."""
    count, cells, _, _ = lv.shape
    own = np.eye(cells, dtype=bool)  # own[i, j]: j == i
    # per cell: direct - lv[..., j] does not fall from a weaker slot to the next
    mac = (np.diff(direct[..., None] - lv, axis=2) >= 0).all(axis=(1, 2, 3))
    # cross-cell: interferer v of cell k != i counts v[i] - v[j] toward
    # cell j, or v[i] when it sits in cell j itself
    spill = np.where(own[:, None], 0, lv)
    worst = np.full((count, cells, cells), _LEAST)  # worst[t, i, j]
    for k in range(cells):
        terms = (lv[:, k, :, :, None] - spill[:, k, :, None]).max(axis=1)
        terms[:, k] = _LEAST  # no interferer from the receiver's own cell
        np.maximum(worst, terms, out=worst)
    cross = ((direct[..., None] >= lv + worst[:, :, None]) | own[:, None]).all(axis=(1, 2, 3))
    return mac & cross


def _optimality_flags(lv: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Whether the optimality pair holds, per trial; see ``_condition_flags``."""
    _, cells, n, _ = lv.shape
    own = np.eye(cells, dtype=bool)
    # per cell: every stronger slot s against every weaker slot w
    strong, weak = lv[:, :, :, None], lv[:, :, None]  # [t, i, s, w, j]
    gap = (direct[:, :, :, None] - direct[:, :, None])[..., None]
    skip = own[:, None, None] | (np.arange(n)[:, None] <= np.arange(n))[:, :, None]
    mac = ((gap >= np.minimum(strong, 2 * strong - weak)) | skip).all(axis=(1, 2, 3, 4))
    # cross-cell: caused toward any other cell plus the largest level
    # received from any other cell's user
    received = np.where(own, _LEAST, lv.max(axis=2)).max(axis=1)  # [t, i]
    caused = np.where(own[:, None], _LEAST, lv).max(axis=3)  # [t, i, l]
    return mac & (direct >= caused + received[:, :, None]).all(axis=(1, 2))


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

    Every side is a sum or difference of at most three levels, or
    ``2 * strong - weak``.  A link is at least 5e-324 km long, so a level is
    at most about 12,133 dB / 60 * 10**9, below 2.1e11, and no side comes
    near 2**63.  Optimality without convexity in any trial raises
    ``TinGdofError``, as in ``condition_flags``.
    """
    direct = np.diagonal(lv, axis1=1, axis2=3).transpose(0, 2, 1)  # direct[t, i, l]
    convexity, optimality = _convexity_flags(lv, direct), _optimality_flags(lv, direct)
    if np.any(optimality & ~convexity):
        raise TinGdofError("the optimality conditions hold but the convexity conditions do not")
    return convexity, optimality


def sample_network(p: ScenarioParams, trial_index: int) -> NetworkSpec:
    """Draw one random user placement and return its strength-level network."""
    lv, order = _sample(p, trial_index, 1)
    cells = lv.shape[1]
    alpha = {
        (User(k, l), i): Fraction(level, _LEVEL_SCALE)
        for k, rows in enumerate(lv[0].tolist(), start=1)
        for l, row in enumerate(rows, start=1)
        for i, level in enumerate(row, start=1)
    }
    provenance = tuple(tuple(s + 1 for s in slots) for slots in order[0].tolist())
    return NetworkSpec(cells, (p.users_per_cell,) * cells, alpha, provenance)


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

    Counted jointly per trial on the integer level tables, ``TRIAL_BLOCK``
    trials at a time; no network is built.  A trial where the optimality
    pair holds but the convexity pair does not would be a bug, and
    ``_condition_flags`` raises on it.
    """
    conv = opt = 0
    for first in range(0, p.trials, TRIAL_BLOCK):
        convexity, optimality = _condition_flags(
            _sample(p, first, min(TRIAL_BLOCK, p.trials - first))[0]
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
        estimate_probabilities(replace(base, site_radius_m=float(r)))
        for r in radii_m
    ]
    return ProbabilityCurve(tuple(points))
