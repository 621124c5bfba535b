"""The four benchmark workloads: seeded inputs, the timed request, and checks.

Every input is drawn here from ``random.Random(seed)``; nothing comes from
``tin_gdof.sampling``, so a change to the library cannot change the inputs.
The library is called through module attributes (``analysis.f(...)``, never a
name bound by ``from ... import``), so the tracer's rebinding reaches every
call.

A workload has:

* ``inputs``: the request pool, built during set-up; requests cycle through it;
* ``granule``: the timed loop stops only after a multiple of this many
  requests, so every run has the same request mix;
* ``request(item)``: the timed call into the program;
* ``units(item)``: work units that request counts for ``work_per_s``;
* ``summary(item, result)``: the exact, implementation-independent part of
  the result (no argmax or witness, which may legitimately change), compared
  against the results recorded for the default seed;
* ``verify(item, result)``: raises ``CheckFailed`` unless the result is
  correct.  The worker calls it once per input, on the first result; later
  results of that input must equal the first.
"""

from __future__ import annotations

import csv
import io
import json
import random
import resource
import subprocess
import sys
from fractions import Fraction

from tin_gdof import analysis, cellsim, conditions, model, potential, regions

User = model.User

#: Seed whose exact results are recorded in ``golden.json``.
DEFAULT_SEED = 1

RATE_TOL_BITS = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- random networks on the 1/20 lattice --------------------------------------


def _directs(rng: random.Random, n: int, denom: int) -> list[Fraction]:
    return sorted(Fraction(rng.randint(denom, 2 * denom), denom) for _ in range(n))


def convexity_network(rng: random.Random, users_per_cell, denom: int = 20):
    """Directs in [1, 2]; cross levels below half the weakest direct that grow
    with the slot by at most the direct-level steps (the convexity conditions
    by construction, confirmed exactly)."""
    cells = len(users_per_cell)
    while True:
        directs = {k: _directs(rng, n, denom) for k, n in enumerate(users_per_cell, 1)}
        cap = min(vals[0] for vals in directs.values()) / 2
        alpha = {}
        for k, vals in directs.items():
            for l, v in enumerate(vals, 1):
                alpha[(User(k, l), k)] = v
            for j in range(1, cells + 1):
                if j == k:
                    continue
                level = Fraction(0)
                for l in range(1, len(vals) + 1):
                    headroom = cap - level
                    if l > 1:
                        headroom = min(headroom, vals[l - 1] - vals[l - 2])
                    level += Fraction(rng.randint(0, max(0, int(headroom * denom))), denom)
                    alpha[(User(k, l), j)] = level
        net = model.NetworkSpec.from_alpha(cells, users_per_cell, alpha)
        if conditions.evaluate_conditions(net).convexity_holds:
            return net


def optimality_network(rng: random.Random, users_per_cell, denom: int = 20):
    """As ``convexity_network``, but each cross level is also capped by the
    direct-level gap to every weaker user of its cell (the optimality
    conditions by construction, confirmed exactly)."""
    cells = len(users_per_cell)
    while True:
        directs = {k: _directs(rng, n, denom) for k, n in enumerate(users_per_cell, 1)}
        cap = min(vals[0] for vals in directs.values()) / 2
        alpha = {}
        for k, vals in directs.items():
            for l, v in enumerate(vals, 1):
                alpha[(User(k, l), k)] = v
            for j in range(1, cells + 1):
                if j == k:
                    continue
                for l in range(1, len(vals) + 1):
                    limit = min([cap] + [vals[l - 1] - vals[p] for p in range(l - 1)])
                    limit = max(limit, Fraction(0))
                    alpha[(User(k, l), j)] = Fraction(rng.randint(0, int(limit * denom)), denom)
        net = model.NetworkSpec.from_alpha(cells, users_per_cell, alpha)
        if conditions.evaluate_conditions(net).optimality_holds:
            return net


# -- cellular: the Monte Carlo of acceptance test 10 ---------------------------


class Cellular:
    """One request is one ``cellsim.estimate_probabilities`` call on a point of
    the test-10 grid; one pass visits all 30 points."""

    name = "cellular"
    #: Cells sampled per request: 40 trials of the 2-cell linear array, 20 of
    #: the 4-cell ring.  Per trial the 30 points differ about 50x in cost;
    #: equal cells per request puts the median request among the overlapping
    #: linear L=2,3 and circular L=1 points instead of on a gap between groups.
    CELLS_PER_REQUEST = 80
    RADII = (80.0, 120.0, 160.0, 200.0, 243.0)
    tail_percentile = 95

    def __init__(self, seed: int):
        scenario_seed = random.Random(seed).randrange(2**32)
        self.inputs = [
            cellsim.ScenarioParams(
                geometry=geometry,
                site_radius_m=r,
                users_per_cell=users,
                trials=self.CELLS_PER_REQUEST // cells,
                seed=scenario_seed,
                cells=cells,
            )
            for geometry, cells in (("linear", 2), ("circular", 4))
            for users in (1, 2, 3)
            for r in self.RADII
        ]
        self.granule = len(self.inputs)

    def request(self, p):
        return cellsim.estimate_probabilities(p)

    def units(self, p) -> int:
        return p.trials

    def summary(self, p, point) -> list:
        return [round(point.p_convexity * point.trials), round(point.p_optimality * point.trials)]

    def verify(self, p, point) -> None:
        key = (p.geometry, p.users_per_cell, p.site_radius_m)
        recount = [0, 0]
        for trial in range(p.trials):
            report = conditions.evaluate_conditions(cellsim.sample_network(p, trial))
            recount[0] += report.convexity_holds
            recount[1] += report.optimality_holds
        _expect(point.trials == p.trials and point.users_per_cell == p.users_per_cell,
                f"{key}: point describes another scenario")
        _expect(point.r_m == p.site_radius_m, f"{key}: wrong radius {point.r_m}")
        _expect(self.summary(p, point) == recount,
                f"{key}: counts {self.summary(p, point)} != recount {recount}")


# -- sumgdof: exact weighted sum-GDoF over the explicit identity-order region --


class SumGdof:
    """One request builds the identity-order region of a 4-cell x 2-user
    optimality network (192 rows) and maximizes one weighted GDoF sum."""

    name = "sumgdof"
    tail_percentile = 80
    NETWORKS = 96
    SHAPE = (2, 2, 2, 2)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.NETWORKS):
            net = optimality_network(rng, self.SHAPE)
            weights = {u: Fraction(rng.randint(1, 4)) for u in net.users}
            self.inputs.append((net, weights))
        self.granule = 1

    def request(self, item):
        net, weights = item
        region = regions.polyhedral_region(net, model.DecodingOrder.identity(net))
        return analysis.max_weighted_gdof(region, weights)

    def units(self, item) -> int:
        return 1

    def summary(self, item, opt) -> str:
        return str(opt.value)

    def verify(self, item, opt) -> None:
        net, weights = item
        identity = model.DecodingOrder.identity(net)
        # The optimality theorem: the LP over the outer bound has the same
        # value.  When both inequality systems are identical that holds
        # without solving the second LP.
        outer = analysis.gdof_outer_bound(net)
        if not outer.same_system(regions.polyhedral_region(net, identity)):
            bound = analysis.max_weighted_gdof(outer, weights).value
            _expect(opt.value == bound, f"LP value {opt.value} != outer-bound LP value {bound}")
        _expect(sum(weights[u] * opt.argmax[u] for u in net.users) == opt.value,
                "argmax does not attain the reported value")
        g = potential.build_potential_graph(net, identity, None, opt.argmax)
        _expect(potential.feasible_by_negative_cycle(g).feasible,
                "argmax fails the negative-cycle test")


# -- membership: search over decode orders with the potential graph ------------


class Membership:
    """One request is one ``analysis.general_membership`` query on a
    convexity-style network.  Achievable tuples exit early.  On 3x2 and 4x2
    networks one tuple in four is an achievable tuple scaled by 11/10 with its
    zeros raised to 1/2: almost always a non-member, which scans all 8 or 16
    orders of the full support.  3x3 networks get achievable tuples only,
    because a 3x3 full scan visits 216 orders (about 0.4 s) and a handful of
    them would dominate the run."""

    name = "membership"
    tail_percentile = 95
    SHAPES = ((2, 2, 2), (3, 3, 3), (2, 2, 2, 2))
    SCANNED_SHAPES = ((2, 2, 2), (2, 2, 2, 2))
    NETWORKS_PER_SHAPE = 32
    QUERIES_PER_NETWORK = 4
    SCALE = Fraction(11, 10)
    ZERO_RAISED_TO = Fraction(1, 2)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.NETWORKS_PER_SHAPE):
            for shape in self.SHAPES:
                net = convexity_network(rng, shape)
                tuples = [self._achievable(rng, net) for _ in range(self.QUERIES_PER_NETWORK)]
                if shape in self.SCANNED_SHAPES:
                    # With full support every such query scans the same number
                    # of orders, so the tail is made of like requests.
                    tuples[-1] = regions.GdofTuple(
                        {u: v * self.SCALE or self.ZERO_RAISED_TO for u, v in tuples[-1].d.items()}
                    )
                self.inputs += [(net, d) for d in tuples]
        self.granule = 1

    @staticmethod
    def _achievable(rng: random.Random, net):
        """Achievable GDoF of a random decode order and a power allocation on
        the grid {0, -1/20, ..., -1}."""
        order = model.DecodingOrder(
            tuple(tuple(rng.sample(range(1, n + 1), n)) for n in net.users_per_cell)
        )
        alloc = potential.PowerAllocation(
            {u: Fraction(-rng.randint(0, 20), 20) for u in net.users}, frozenset()
        )
        return regions.GdofTuple(analysis.achievable_gdof(net, order, alloc))

    def request(self, item):
        net, d = item
        return analysis.general_membership(net, d)

    def units(self, item) -> int:
        return 1

    def summary(self, item, result) -> bool:
        return result.member

    def verify(self, item, result) -> None:
        net, d = item
        # Inequality membership over every order of the support: an oracle
        # independent of the potential graph.
        support = d.support()
        member = any(
            regions.membership(regions.polyhedral_region(net, order, support), d).member
            for order in model.enumerate_orders(net, support)
        )
        _expect(result.member == member, f"member={result.member}, inequality oracle says {member}")
        if result.member:
            w = result.witness
            _expect(w.subnetwork == d.support(), "witness activates a wrong user set")
            _expect(analysis.gdof_dominates(net, w.order, w.allocation, d),
                    "witness allocation does not achieve the tuple")


# -- cli: fresh-process runs of every README subcommand ------------------------


CLI_NETWORK = "docs/example-network.json"


class Cli:
    """One request is one ``python -m tin_gdof.cli`` process running a README
    subcommand on the bundled example network; one pass runs all nine."""

    name = "cli"
    tail_percentile = 80
    #: Peak memory is that of the largest child process.
    rusage_who = resource.RUSAGE_CHILDREN
    #: Timings are not scaled to nominal machine speed: the in-process
    #: reference loop does not track the start and imports of a fresh
    #: interpreter, and timed right after a child exits it scattered widely
    #: (see ``calibration``).
    calibrated = False
    SIM_TRIALS = 20
    ORACLE_INSTANCES = 20

    def __init__(self, seed: int):
        rng = random.Random(seed)
        net_opt = ["--network", CLI_NETWORK]
        d = ",".join(str(Fraction(rng.randint(0, 12), 10)) for _ in range(3))
        weights = ",".join(str(rng.randint(1, 4)) for _ in range(3))
        self.inputs = [
            ("check", net_opt + ["--pimac-regime"]),
            ("region", net_opt + ["--order", "id"]),
            ("membership", net_opt + ["--d", d]),
            ("sumgdof", net_opt + ["--weights", weights]),
            ("vertices", net_opt + ["--format", "csv"]),
            ("outer-bound", net_opt + ["--snr", "10000"]),
            ("gap-report", net_opt + ["--snr", "10000"]),
            ("simulate", ["--geometry", "linear", "--r-sweep", "80,120,160,200,243",
                          "--L", "2", "--trials", str(self.SIM_TRIALS),
                          "--seed", str(rng.randrange(2**31))]),
            ("oracle-verify", ["--instances", str(self.ORACLE_INSTANCES),
                               "--seed", str(rng.randrange(2**31))]),
        ]
        self.granule = len(self.inputs)

    def request(self, item):
        sub, args = item
        proc = subprocess.run(
            [sys.executable, "-m", "tin_gdof.cli", sub, *args],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def units(self, item) -> int:
        return 1

    def span_name(self, item) -> str:
        return f"cli.{item[0]}"

    @staticmethod
    def _arg(args, name):
        return args[args.index(name) + 1]

    def summary(self, item, result):
        """Exit code and the exact, implementation-independent output fields."""
        sub, args = item
        code, out = result
        if sub in ("vertices", "simulate"):
            rows = list(csv.reader(io.StringIO(out)))
            return [code, rows[0], [[float(v) for v in row] for row in rows[1:]]]
        payload = json.loads(out)["payload"]
        if sub == "check":
            fields = [payload["convexity_holds"], payload["optimality_holds"],
                      payload["pimac_regime"]["label"]]
        elif sub == "region":
            fields = [payload["forced_zero"],
                      [[q["users"], q["rhs"]["exact"]] for q in payload["inequalities"]]]
        elif sub == "membership":
            fields = [payload["member"]]
        elif sub == "sumgdof":
            fields = [payload["value"]["exact"]]
        elif sub == "outer-bound":
            fields = [[b["kind"], b["users"], b["rhs_bits"]] for b in payload["bounds"]]
        elif sub == "gap-report":
            fields = [[b["kind"], b["users"], b["rhs_bits"]] for b in payload["per_bound"]]
        else:  # oracle-verify
            fields = [payload["instances"], payload["negative_cycle_mismatches"],
                      payload["all_circuits_mismatches"]]
        return [code, fields]

    def _expect_summary(self, item):
        """The same fields computed in-process by the library."""
        sub, args = item
        net = model.load_network(CLI_NETWORK)
        identity = model.DecodingOrder.identity(net)
        if sub == "check":
            rep = conditions.evaluate_conditions(net)
            code = 0 if rep.optimality_holds else (1 if rep.convexity_holds else 2)
            return [code, [rep.convexity_holds, rep.optimality_holds,
                           conditions.classify_pimac(net).label.value]]
        if sub == "region":
            reg = regions.polyhedral_region(net, identity)
            return [0, [[], [[sorted([u.cell, u.slot] for u in q.users), str(q.rhs)]
                             for q in reg.inequalities]]]
        if sub == "membership":
            values = [Fraction(t) for t in self._arg(args, "--d").split(",")]
            member = analysis.general_membership(
                net, regions.GdofTuple.from_values(net, values)).member
            return [0 if member else 1, [member]]
        if sub == "sumgdof":
            weights = dict(zip(net.users, map(Fraction, self._arg(args, "--weights").split(","))))
            region = regions.polyhedral_region(net, identity)
            value = analysis.max_weighted_gdof(region, weights).value
            return [0, [str(value)]]
        if sub == "vertices":
            verts = analysis.vertices(regions.polyhedral_region(net, identity))
            header = [f"{u.cell}.{u.slot}" for u in net.users]
            return [0, header, [[float(v[u]) for u in net.users] for v in verts]]
        if sub in ("outer-bound", "gap-report"):
            bounds = analysis.outer_bound_rates(model.load_finite_snr(CLI_NETWORK))
            return [0, [[b.kind, [f"{u.cell}.{u.slot}" for u in sorted(b.users)], b.rhs_bits]
                        for b in bounds]]
        if sub == "simulate":
            radii = [float(r) for r in self._arg(args, "--r-sweep").split(",")]
            base = cellsim.ScenarioParams(
                geometry=self._arg(args, "--geometry"), site_radius_m=radii[0],
                users_per_cell=int(self._arg(args, "--L")),
                trials=int(self._arg(args, "--trials")), seed=int(self._arg(args, "--seed")),
            )
            rows = [[pt.r_m, float(pt.users_per_cell), pt.p_convexity, pt.p_optimality,
                     float(pt.trials), pt.ci95_halfwidth]
                    for pt in cellsim.sweep(base, radii).points]
            return [0, ["r_m", "L", "p_convexity", "p_optimality", "trials", "ci95"], rows]
        return [0, [int(self._arg(args, "--instances")), 0, 0]]  # oracle-verify

    def verify(self, item, result) -> None:
        sub, args = item
        code, out = result
        try:
            got = self.summary(item, result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise CheckFailed(f"{sub}: exit {code}, unreadable output ({exc!r})") from exc
        expected = self._expect_summary(item)
        _expect(got == expected, f"{sub}: output {got} != library {expected}")
        if sub == "gap-report":
            payload = json.loads(out)["payload"]
            gaps = [b["gap_bits"] for b in payload["per_bound"]]
            _expect(min(gaps) >= -RATE_TOL_BITS, f"gap-report: negative gap {min(gaps)}")
            _expect(payload["max_gap_bits"] == max(gaps), "gap-report: max_gap_bits is not the max")
        if sub == "membership" and code == 0:
            self._verify_witness(args, json.loads(out)["payload"]["witness"])

    def _verify_witness(self, args, w) -> None:
        net = model.load_network(CLI_NETWORK)
        d = regions.GdofTuple.from_values(
            net, [Fraction(t) for t in self._arg(args, "--d").split(",")])

        def user(tok):
            return User(*map(int, tok.split(".")))

        alloc = potential.PowerAllocation(
            {user(u): Fraction(r["exact"]) for u, r in w["power_exponents"].items()},
            frozenset(user(u) for u in w["off"]),
        )
        order = model.DecodingOrder(tuple(tuple(cell) for cell in w["order"]))
        _expect(analysis.gdof_dominates(net, order, alloc, d),
                "membership: witness allocation does not achieve the tuple")


WORKLOADS = {"cellular": Cellular, "sumgdof": SumGdof, "membership": Membership, "cli": Cli}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
