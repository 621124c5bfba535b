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

Sampling is on integers: a trial draws all its uniforms with one call,
rounds each level to an integer over ``10**LEVEL_DIGITS`` (the rounding
``model.rationalize`` applies to floats) and sorts every cell's slots by
direct level.  ``estimate_probabilities`` checks that table with
``conditions.condition_flags`` and builds no ``NetworkSpec`` and no
``Fraction``; ``sample_network`` wraps the same sampler and returns the
network, equal to the one ``NetworkSpec.from_alpha`` makes of those levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .conditions import condition_flags
from .errors import NetworkSpecError
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


_WORD = 2**64 - 1


def _trial_rngs(seed: int):
    """The function from a trial index to the generator of that trial.

    Every trial's generator is Philox keyed by the words (seed, trial)
    mod 2**64, at counter 0.  One Philox serves all trials: each call
    writes the trial's key into a saved fresh state, with a zero counter
    and an empty buffer, so its draws are those of a newly keyed Philox
    without the cost of building one.  Every call returns the same
    generator, so it serves one trial at a time.
    """
    bits = np.random.Philox(key=seed & _WORD)
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]

    def rng(trial_index: int) -> np.random.Generator:
        key[1] = trial_index & _WORD
        bits.state = state
        return gen

    return rng


def _rng(p: ScenarioParams, trial_index: int) -> np.random.Generator:
    """The generator of one trial, as ``_trial_rngs`` keys it."""
    return _trial_rngs(p.seed)(trial_index)


def _level(distance_m: float) -> int:
    """Level of a link of this length, as an integer over ``10**LEVEL_DIGITS``.

    The same float expression ``rationalize`` rounds at ``LEVEL_DIGITS``.
    """
    margin_db = TX_POWER_DBM - path_loss_db(distance_m / 1000.0) - NOISE_FLOOR_DBM
    return round(max(0.0, margin_db) / LEVEL_REFERENCE_DB * _LEVEL_SCALE)


def _uniform(a: float, b: float, u: float) -> float:
    """numpy's ``uniform(a, b)`` for the standard uniform draw ``u``."""
    return a + (b - a) * u


def _sample_levels(p: ScenarioParams, rng: np.random.Generator):
    """Levels of one random user placement, drawn from ``rng``, as an integer table.

    Returns ``(lv, provenance)``: ``lv[k][l][i]`` is the level of slot
    ``l + 1`` of cell ``k + 1`` at the receiver of cell ``i + 1``, over
    ``10**LEVEL_DIGITS``, with each cell's slots stable-sorted by direct level;
    ``provenance[k][s]`` is the drawn slot stored as slot ``s + 1``.

    All uniforms of a trial come from one ``random(m)`` call.  ``_uniform``
    maps each as numpy's ``uniform(a, b)`` does, so the draws are bit for bit
    those of one scalar ``uniform`` call per number, in the same order.
    """
    r, r0, n = p.site_radius_m, p.exclusion_m, p.users_per_cell

    if p.geometry == "linear":
        # Site 1 at 0 facing right, site 2 at 2r facing left; both sectors
        # cover (0, r) resp. (r, 2r), users keep r0 clear of their site.
        u = rng.random(2 * n).tolist()
        near, far = [], []
        for slot in range(n):
            x = _uniform(r0, r, u[2 * slot])
            near.append((_level(x), _level(2 * r - x)))
            y = _uniform(r + 0.0, 2 * r - r0, u[2 * slot + 1])
            far.append((_level(y), _level(2 * r - y)))
        return _sorted_by_direct([near, far])

    cells = p.cells
    circumference = 2 * r * cells
    # Receivers a cell's users reach: its own and the adjacent ones on the ring.
    reach = [
        [i for i in range(cells) if min(abs(k - i), cells - abs(k - i)) <= 1]
        for k in range(cells)
    ]
    u = rng.random(2 * cells * n).tolist()
    table = []
    for k in range(cells):
        rows = []
        for slot in range(n):
            t = 2 * (k * n + slot)
            side = 1 if u[t] < 0.5 else -1
            offset = side * _uniform(r0, r, u[t + 1])
            row = [0] * cells
            for i in reach[k]:
                if i == k:
                    delta = abs(offset)
                else:
                    # signed ring distance, folded to the shorter arc
                    raw = (2 * r * (i - k) - offset) % circumference
                    delta = min(raw, circumference - raw)
                row[i] = _level(delta)
            rows.append(row)
        table.append(rows)
    return _sorted_by_direct(table)


def _sorted_by_direct(table):
    """``(lv, provenance)`` of a drawn table, as ``_sample_levels`` returns them."""
    lv, provenance = [], []
    for k, rows in enumerate(table):
        slots = sorted(range(len(rows)), key=lambda l: rows[l][k])
        lv.append([rows[l] for l in slots])
        provenance.append(tuple(l + 1 for l in slots))
    return lv, tuple(provenance)


def sample_network(p: ScenarioParams, trial_index: int) -> NetworkSpec:
    """Draw one random user placement and return its strength-level network."""
    lv, provenance = _sample_levels(p, _rng(p, trial_index))
    cells = len(lv)
    alpha = {
        (User(k, l), i): Fraction(level, _LEVEL_SCALE)
        for k, rows in enumerate(lv, start=1)
        for l, row in enumerate(rows, start=1)
        for i, level in enumerate(row, start=1)
    }
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

    Counted jointly per trial on the integer level table; no network is
    built.  A trial where the optimality pair holds but the convexity pair
    does not would be a bug, and ``condition_flags`` raises on it.
    """
    rngs = _trial_rngs(p.seed)
    conv = opt = 0
    for trial in range(p.trials):
        convexity, optimality = condition_flags(_sample_levels(p, rngs(trial))[0])
        conv += convexity
        opt += optimality
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
