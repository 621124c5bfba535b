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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .conditions import evaluate_conditions
from .errors import NetworkSpecError
from .model import NetworkSpec, User, rationalize

#: Path-loss model PL(d) = A + B log10(d_km), in dB.
PATHLOSS_A_DB = 148.1
PATHLOSS_B_DB = 37.6

#: Fixed positive reference converting dB-above-noise into level exponents.
#: Any positive value yields the same condition outcomes.
LEVEL_REFERENCE_DB = 60.0

#: Floats are rationalized at this many decimal digits before exact checks.
LEVEL_DIGITS = 9


def path_loss_db(d_km: float, a: float = PATHLOSS_A_DB, b: float = PATHLOSS_B_DB) -> float:
    """Distance-dependent path loss in dB for a distance in kilometers."""
    if d_km <= 0:
        raise ValueError("distance must be positive")
    return a + b * math.log10(d_km)


@dataclass(frozen=True)
class ScenarioParams:
    geometry: str  # "linear" or "circular"
    site_radius_m: float
    users_per_cell: int
    trials: int
    seed: int
    cells: int = 4  # circular geometry only; linear is always 2 cells
    exclusion_m: float = 35.0
    tx_power_dbm: float = 23.0
    noise_floor_dbm: float = -102.0
    pathloss_a: float = PATHLOSS_A_DB
    pathloss_b: float = PATHLOSS_B_DB

    def __post_init__(self):
        if self.geometry not in ("linear", "circular"):
            raise NetworkSpecError(f"unknown geometry {self.geometry!r}")
        if not (0 <= self.exclusion_m < self.site_radius_m):
            raise NetworkSpecError("need 0 <= exclusion radius < site radius")
        if self.users_per_cell < 1 or self.trials < 1:
            raise NetworkSpecError("users_per_cell and trials must be positive")
        if self.geometry == "circular" and self.cells < 2:
            raise NetworkSpecError("circular geometry needs at least 2 cells")


def _rng(p: ScenarioParams, trial_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=[p.seed & (2**64 - 1), trial_index & (2**64 - 1)])
    )


def _level(p: ScenarioParams, distance_m: float):
    margin_db = p.tx_power_dbm - path_loss_db(
        distance_m / 1000.0, p.pathloss_a, p.pathloss_b
    ) - p.noise_floor_dbm
    return rationalize(max(0.0, margin_db) / LEVEL_REFERENCE_DB, LEVEL_DIGITS)


def sample_network(p: ScenarioParams, trial_index: int) -> NetworkSpec:
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

    Counted jointly per trial; a trial where the optimality pair holds but
    the convexity pair does not would be a bug, and ``evaluate_conditions``
    raises on it.
    """
    conv = opt = 0
    for trial in range(p.trials):
        net = sample_network(p, trial)
        report = evaluate_conditions(net)
        conv += report.convexity_holds
        opt += report.optimality_holds
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
