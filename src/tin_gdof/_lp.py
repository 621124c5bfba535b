"""Exact linear programming over rationals.

Two routines, both exact:

* ``simplex_max``: maximize a linear functional over {x >= 0, Ax <= b} with
  b >= 0, via the tableau simplex with Bland's rule (no cycling, fully
  deterministic).  It solves hand-built regions only: regions made by
  ``polyhedral_region`` are optimized as a min-cost flow (``_flow``), and
  this simplex is the test oracle for that path.
* ``enumerate_vertices``: all vertices of {x >= 0, Ax <= b} by enumerating
  n-subsets of tight constraints.  A vectorized float pass discards clearly
  singular or clearly infeasible bases first; every surviving candidate is
  re-solved and re-checked in exact rational arithmetic.  The prefilter is
  safe: basis matrices here have entries in {-1, 0, 1}, so their condition
  numbers are bounded far below the rejection tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import EmptyRegionError, GuardExceededError, TinGdofError

_PREFILTER_TOL = 1e-6
_CHUNK = 65536

#: Basis enumeration refuses systems with more candidate bases than this.
MAX_BASES = 20_000_000


class UnboundedProgramError(TinGdofError):
    """The LP is unbounded (cannot happen for well-formed GDoF regions)."""


def simplex_max(
    objective: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize objective . x subject to rows . x <= rhs and x >= 0.

    Requires rhs >= 0 (the origin is then feasible); raises
    EmptyRegionError otherwise.
    """
    n, m = len(objective), len(rows)
    if any(b < 0 for b in rhs):
        raise EmptyRegionError("system is infeasible at the origin")
    # Tableau columns: n structural + m slacks + rhs.
    tab = [list(rows[i]) + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    cost = list(objective) + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)  # Bland
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise UnboundedProgramError("objective is unbounded over the region")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                factor = tab[i][enter]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[leave])]
        if cost[enter]:
            factor = cost[enter]
            cost = [a - factor * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    return -cost[-1], x


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square rational system by Gaussian elimination; None if singular."""
    n = len(rows)
    a = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][-1] for i in range(n)]


def enumerate_vertices(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[tuple[Fraction, ...]]:
    """Exact vertex set of {x >= 0, rows . x <= rhs}, sorted lexicographically.

    Nonnegativity is appended internally; callers pass only the substantive
    inequalities.  The polytope must be bounded (every coordinate needs some
    upper bound among the rows, which holds for all regions produced here).
    """
    n = len(rows[0]) if rows else 0
    if n == 0:
        return [()]
    full_rows = [list(r) for r in rows]
    full_rhs = list(rhs)
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(-1)
        full_rows.append(row)
        full_rhs.append(Fraction(0))
    m = len(full_rows)
    if math.comb(m, n) > MAX_BASES:
        raise GuardExceededError(
            f"basis enumeration over {m} constraints in {n} dimensions needs "
            f"{math.comb(m, n)} candidate bases (cap {MAX_BASES})"
        )

    combos = itertools.combinations(range(m), n)
    a_f = np.array([[float(v) for v in row] for row in full_rows])
    b_f = np.array([float(v) for v in full_rhs])
    scale = max(1.0, float(np.max(np.abs(b_f))))
    candidates: list[tuple[int, ...]] = []
    while True:
        chunk = list(itertools.islice(combos, _CHUNK))
        if not chunk:
            break
        idx = np.array(chunk)
        mats = a_f[idx]  # (c, n, n)
        dets = np.linalg.det(mats)
        ok = np.abs(dets) > 0.5  # integer determinants: nonsingular iff |det| >= 1
        if not ok.any():
            continue
        sel = np.nonzero(ok)[0]
        sols = np.linalg.solve(mats[sel], b_f[idx[sel]][..., None])[..., 0]
        viol = a_f @ sols.T - b_f[:, None]  # (m, k)
        feas = (viol <= _PREFILTER_TOL * scale).all(axis=0)
        for j in np.nonzero(feas)[0]:
            candidates.append(chunk[sel[j]])

    vertices: set[tuple[Fraction, ...]] = set()
    for combo in candidates:
        x = _solve_exact([full_rows[i] for i in combo], [full_rhs[i] for i in combo])
        if x is None:
            continue
        if all(
            sum((c * v for c, v in zip(row, x)), Fraction(0)) <= b
            for row, b in zip(full_rows, full_rhs)
        ):
            vertices.add(tuple(x))
    return sorted(vertices)
