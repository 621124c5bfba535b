"""Exact vertex enumeration over rationals.

``enumerate_vertices`` finds all vertices of {x >= 0, Ax <= b} by the
double-description method on the homogenized cone, in exact integer
arithmetic.  Its cost grows with the number of vertices and of intermediate
rays, not with the number of candidate bases: 3 cells of 2 users take tens
of milliseconds and 4 cells of 2 users a few seconds.  The only size guard
is ``analysis.VERTEX_GUARD_DIM``.  Weighted sums are maximized elsewhere, as
a min-cost flow (``_flow``).
"""

from __future__ import annotations

import math
from fractions import Fraction


def enumerate_vertices(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[tuple[Fraction, ...]]:
    """Exact vertex set of {x >= 0, rows . x <= rhs}, sorted lexicographically.

    Nonnegativity is implicit; callers pass only the substantive
    inequalities.  The vertices are the rays with t > 0 of the homogenized
    cone {(x, t) >= 0 : rows . x <= rhs * t}, found by double description
    over Python integers (Motzkin et al. 1953; Fukuda & Prodon 1996).  It
    starts from the unit rays of the orthant and cuts by one row at a time,
    rows with fewer nonzero entries first, which keeps the intermediate ray
    sets small.  A ray's zero set, the constraints it makes tight, is an
    ``int`` bitmask.  Two rays on opposite sides of a cut are adjacent, and
    combine into a new ray on it, iff their common zero set has at least
    ``dim - 2`` members and no third ray's zero set contains it (Fukuda &
    Prodon, Prop. 7).  Rays with t = 0 are recession directions, not
    vertices.
    """
    dim = (len(rows[0]) if rows else 0) + 1
    cuts = []
    for row, b in zip(rows, rhs):
        scale = math.lcm(b.denominator, *(v.denominator for v in row))
        cuts.append([int(v * scale) for v in row] + [int(-b * scale)])
    order = sorted(range(len(rows)), key=lambda h: sum(1 for v in rows[h] if v))
    full = (1 << dim) - 1
    rays = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    zeros = [full ^ (1 << j) for j in range(dim)]
    need = dim - 2
    for step, h in enumerate(order):
        bit = 1 << (dim + step)
        vals = [sum(c * v for c, v in zip(cuts[h], ray)) for ray in rays]
        new_rays = [ray for ray, v in zip(rays, vals) if v <= 0]
        new_zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals) if v <= 0]
        for i, vi in enumerate(vals):
            if vi <= 0:
                continue
            zi = zeros[i]
            # Every neighbour of ray i, and every third ray whose zero set
            # contains a common zero set of ray i, shares >= dim - 2 zeros with it.
            near = [k for k, z in enumerate(zeros) if (zi & z).bit_count() >= need]
            for j in near:
                if vals[j] >= 0:
                    continue
                common = zi & zeros[j]
                if any(zeros[k] & common == common for k in near if k != i and k != j):
                    continue
                ray = [vi * a - vals[j] * b for a, b in zip(rays[j], rays[i])]
                g = math.gcd(*ray)
                new_rays.append(tuple(v // g for v in ray))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return sorted(
        tuple(Fraction(v, ray[-1]) for v in ray[:-1]) for ray in rays if ray[-1] > 0
    )
