"""Command-line interface: every library operation as a subcommand.

Exit codes: 0 for success (conditions hold, member, ...), 1 for expected
negative results (conditions fail, non-member, mismatches), 2 for usage or
internal errors.  Structured output goes to stdout as JSON (default) or CSV;
schemas are documented in docs/cli.md.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from fractions import Fraction

import click

from . import analysis, cellsim, potential, regions, sampling
from .conditions import classify_pimac, evaluate_conditions
from .errors import InfeasibleAllocationError, TinGdofError
from .model import (
    DecodingOrder,
    FiniteSnrSpec,
    NetworkSpec,
    User,
    _read_document,
    finite_snr_from_document,
    network_from_document,
)

SCHEMA = "tin-gdof/1"


def _emit(status: str, payload, code: int = 0):
    json.dump({"schema": SCHEMA, "status": status, "payload": payload}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    sys.exit(code)


def _load(network_path) -> tuple[NetworkSpec, FiniteSnrSpec | None]:
    """The file's network and its finite-SNR block (None without one), from one
    read; every subcommand loads both, so a malformed block fails each of them."""
    doc, where = _read_document(network_path)
    return network_from_document(doc, where), finite_snr_from_document(doc, where)


def _rate_model(net: NetworkSpec, fs: FiniteSnrSpec | None, snr: float) -> FiniteSnrSpec:
    """The file's finite-SNR block, else unit-power gains synthesized at ``snr``."""
    if fs is None:
        return sampling.finite_snr_from_network(net, snr)
    click.echo(
        f"note: --snr {snr:g} ignored; using nominal power {fs.nominal_power:g} "
        "from the file's finite_snr block",
        err=True,
    )
    return fs


def _frac(x: Fraction) -> dict:
    return {"exact": str(x), "float": float(x)}


def _user_str(u: User) -> str:
    return f"{u.cell}.{u.slot}"


def _parse_list(option: str, spec: str, item) -> list:
    """The comma-separated items of ``spec``; a malformed one is a one-line error (exit 2)."""
    try:
        return [item(tok) for tok in spec.split(",") if tok]
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(f"invalid {option} value {spec!r}: {exc}") from None


def _parse_user(tok: str) -> User:
    parts = tok.split(".")
    if len(parts) != 2:
        raise ValueError(f"user {tok!r} is not of the form cell.slot")
    return User(int(parts[0]), int(parts[1]))


def _parse_order(spec: str, net: NetworkSpec, s) -> DecodingOrder:
    if spec == "id":
        return DecodingOrder.identity(net, s)
    order = DecodingOrder(
        tuple(tuple(_parse_list("--order", part, int)) for part in spec.split("|"))
    )
    order.validate(net, s)
    return order


def _parse_subnetwork(spec: str | None, net: NetworkSpec):
    if spec is None:
        return net.full_subnetwork
    return net.validate_subnetwork(_parse_list("--subnetwork", spec, _parse_user))


def _parse_per_user(option: str, spec: str, net: NetworkSpec) -> dict[User, Fraction]:
    """One nonnegative rational per user, in canonical (cell, slot) order."""
    values = _parse_list(option, spec, Fraction)
    if len(values) != len(net.users) or min(values) < 0:
        raise click.ClickException(
            f"invalid {option} value {spec!r}: expected {len(net.users)} nonnegative values, "
            "one per user"
        )
    return dict(zip(net.users, values))


def _inequality_record(q: regions.LinearInequality) -> dict:
    return {
        "users": sorted([u.cell, u.slot] for u in q.users),
        "rhs": _frac(q.rhs),
    }


def main():
    try:
        cli(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except TinGdofError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
def cli():
    """Achievable-region, condition and outer-bound computations for uplink cells."""


_network_opt = click.option(
    "--network", "network_path", required=True, type=click.Path(exists=True, dir_okay=False)
)
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json"
)


@cli.command()
@_network_opt
@click.option("--pimac-regime", is_flag=True, help="Also classify the 2-cell (2,1) regime.")
def check(network_path, pimac_regime):
    """Evaluate the convexity and optimality conditions of a network."""
    net, _ = _load(network_path)
    report = evaluate_conditions(net)
    payload = {
        "convexity_holds": report.convexity_holds,
        "optimality_holds": report.optimality_holds,
        "violations": [
            {
                "condition": v.condition.value,
                "indices": list(v.indices),
                "lhs": _frac(v.lhs),
                "rhs": _frac(v.rhs),
            }
            for v in report.violations
        ],
    }
    if pimac_regime:
        regime = classify_pimac(net)
        payload["pimac_regime"] = {
            "label": regime.label.value,
            "box_bounds": [_frac(b) for b in regime.box_bounds],
        }
    # three-way exit code: optimal / convex-only / neither
    if report.optimality_holds:
        _emit("ok", payload, 0)
    _emit("violation", payload, 1 if report.convexity_holds else 2)


@cli.command()
@_network_opt
@click.option("--order", "order_spec", default="id", show_default=True)
@click.option("--subnetwork", "sub_spec", default=None)
@_format_opt
def region(network_path, order_spec, sub_spec, fmt):
    """Emit the inequality list of a fixed-order achievable region."""
    net, _ = _load(network_path)
    s = _parse_subnetwork(sub_spec, net)
    order = _parse_order(order_spec, net, s)
    reg = regions.polyhedral_region(net, order, s)
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["users", "rhs", "rhs_float"])
        for q in reg.inequalities:
            w.writerow(
                ["+".join(_user_str(u) for u in sorted(q.users)), str(q.rhs), float(q.rhs)]
            )
        sys.exit(0)
    _emit(
        "ok",
        {
            "forced_zero": [_user_str(u) for u in sorted(reg.forced_zero)],
            "inequalities": [_inequality_record(q) for q in reg.inequalities],
        },
    )


@cli.command()
@_network_opt
@click.option("--d", "d_spec", required=True, help="Comma-separated values, canonical user order.")
@click.option("--order", "order_spec", default=None, help="Fix the decoding order; omit to search all.")
@click.option("--subnetwork", "sub_spec", default=None, help="Needs --order.")
def membership(network_path, d_spec, order_spec, sub_spec):
    """Test whether a GDoF tuple is achievable (fixed order, or any strategy)."""
    if sub_spec is not None and order_spec is None:
        raise click.ClickException("--subnetwork needs --order")
    net, _ = _load(network_path)
    d = regions.GdofTuple(_parse_per_user("--d", d_spec, net))
    if order_spec is None:
        result = analysis.general_membership(net, d)
        if not result.member:
            _emit("violation", {"member": False}, 1)
        w = result.witness
        _emit(
            "ok",
            {
                "member": True,
                "witness": {
                    "order": [list(t) for t in w.order.per_cell],
                    "subnetwork": [_user_str(u) for u in sorted(w.subnetwork)],
                    "power_exponents": {
                        _user_str(u): _frac(r) for u, r in sorted(w.allocation.exponents.items())
                    },
                    "off": [_user_str(u) for u in sorted(w.allocation.off)],
                },
            },
        )
    s = _parse_subnetwork(sub_spec, net)
    order = _parse_order(order_spec, net, s)
    g = potential.build_potential_graph(net, order, s, d)
    try:
        alloc = potential.recover_power_allocation(g)
    except InfeasibleAllocationError as exc:
        _emit(
            "violation",
            {
                "member": False,
                "witness_circuit": {
                    "vertices": [_user_str(v) for v in exc.circuit.vertices],
                    "length": _frac(exc.circuit.length),
                },
            },
            1,
        )
    _emit(
        "ok",
        {
            "member": True,
            "power_exponents": {
                _user_str(u): _frac(r) for u, r in sorted(alloc.exponents.items())
            },
        },
    )


@cli.command()
@_network_opt
@click.option("--weights", "weights_spec", required=True)
@click.option("--order", "order_spec", default="id", show_default=True)
@click.option("--subnetwork", "sub_spec", default=None)
def sumgdof(network_path, weights_spec, order_spec, sub_spec):
    """Maximize a weighted GDoF sum over a fixed-order region."""
    net, _ = _load(network_path)
    s = _parse_subnetwork(sub_spec, net)
    order = _parse_order(order_spec, net, s)
    reg = regions.polyhedral_region(net, order, s)
    weights = _parse_per_user("--weights", weights_spec, net)
    opt = analysis.max_weighted_gdof(reg, weights)
    _emit(
        "ok",
        {
            "value": _frac(opt.value),
            "argmax": {_user_str(u): _frac(v) for u, v in sorted(opt.argmax.d.items())},
        },
    )


@cli.command(name="vertices")
@_network_opt
@click.option("--order", "order_spec", default="id", show_default=True)
@click.option("--subnetwork", "sub_spec", default=None)
@_format_opt
def vertices_cmd(network_path, order_spec, sub_spec, fmt):
    """Enumerate the vertices of a fixed-order region (plot data)."""
    net, _ = _load(network_path)
    s = _parse_subnetwork(sub_spec, net)
    order = _parse_order(order_spec, net, s)
    reg = regions.polyhedral_region(net, order, s)
    verts = analysis.vertices(reg)
    users = list(net.users)
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow([_user_str(u) for u in users])
        for v in verts:
            w.writerow([float(v[u]) for u in users])
        sys.exit(0)
    _emit(
        "ok",
        {
            "users": [_user_str(u) for u in users],
            "vertices": [[str(v[u]) for u in users] for v in verts],
        },
    )


@cli.command(name="outer-bound")
@_network_opt
@click.option("--snr", "snr", type=float, default=None, help="Nominal power for rate bounds.")
def outer_bound(network_path, snr):
    """The strength-level outer bound, or finite-SNR rate bounds with --snr."""
    net, fs = _load(network_path)
    if snr is None:
        reg = analysis.gdof_outer_bound(net)
        _emit("ok", {"inequalities": [_inequality_record(q) for q in reg.inequalities]})
    bounds = analysis.outer_bound_rates(_rate_model(net, fs, snr))
    _emit(
        "ok",
        {
            "bounds": [
                {
                    "kind": b.kind,
                    "users": [_user_str(u) for u in sorted(b.users)],
                    "rhs_bits": b.rhs_bits,
                }
                for b in bounds
            ]
        },
    )


@cli.command(name="gap-report")
@_network_opt
@click.option("--snr", type=float, required=True)
def gap_report_cmd(network_path, snr):
    """Outer bound vs rates achieved at every region corner, at finite SNR."""
    net, fs = _load(network_path)
    rep = analysis.gap_report(_rate_model(net, fs, snr))
    _emit(
        "ok",
        {
            "max_gap_bits": rep.max_gap_bits,
            "corners_used": rep.corners_used,
            "per_bound": [
                {
                    "kind": bg.bound.kind,
                    "users": [_user_str(u) for u in sorted(bg.bound.users)],
                    "rhs_bits": bg.bound.rhs_bits,
                    "achieved_sum": bg.achieved_sum,
                    "gap_bits": bg.gap_bits,
                }
                for bg in rep.per_bound
            ],
        },
    )


@cli.command()
@click.option("--geometry", type=click.Choice(["linear", "circular"]), required=True)
@click.option("--r", "radius", type=float, default=None, help="Site radius in meters.")
@click.option("--r-sweep", "r_sweep", default=None, help="Comma-separated radii in meters.")
@click.option("--L", "users", type=int, required=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cells", type=int, default=None, help="Ring size, circular geometry only (default 4).")
def simulate(geometry, radius, r_sweep, users, trials, seed, cells):
    """Estimate the probability that the TIN conditions hold (CSV output)."""
    if (radius is None) == (r_sweep is None):
        raise click.ClickException("exactly one of --r and --r-sweep is required")
    if cells is not None and geometry == "linear":
        raise click.ClickException("--cells applies to the circular geometry only")
    radii = [radius] if radius is not None else _parse_list("--r-sweep", r_sweep, float)
    base = cellsim.ScenarioParams(
        geometry=geometry,
        site_radius_m=radii[0],
        users_per_cell=users,
        trials=trials,
        seed=seed,
        cells=4 if cells is None else cells,
    )
    curve = cellsim.sweep(base, radii)
    w = csv.writer(sys.stdout)
    w.writerow(["r_m", "L", "p_convexity", "p_optimality", "trials", "ci95"])
    for pt in curve.points:
        w.writerow(
            [pt.r_m, pt.users_per_cell, pt.p_convexity, pt.p_optimality, pt.trials,
             pt.ci95_halfwidth]
        )
    sys.exit(0)


@cli.command(name="oracle-verify")
@click.option("--instances", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def oracle_verify(instances, seed):
    """Cross-check the negative-cycle test and the circuit-enumeration oracle
    against inequality membership on random instances."""
    rng = random.Random(seed)
    negcycle_mismatch = 0
    circuits_mismatch = 0
    for _ in range(instances):
        net = sampling.random_network(rng)
        order = sampling.random_order(rng, net)
        d = sampling.random_gdof_tuple(rng, net)
        reg = regions.polyhedral_region(net, order)
        by_ineq = regions.membership(reg, d).member
        g = potential.build_potential_graph(net, order, None, d)
        if potential.feasible_by_negative_cycle(g).feasible != by_ineq:
            negcycle_mismatch += 1
        if potential.all_circuits_region_oracle(net, order, d) != by_ineq:
            circuits_mismatch += 1
    status = "ok" if negcycle_mismatch == circuits_mismatch == 0 else "violation"
    _emit(
        status,
        {
            "instances": instances,
            "negative_cycle_mismatches": negcycle_mismatch,
            "all_circuits_mismatches": circuits_mismatch,
        },
        0 if status == "ok" else 1,
    )


if __name__ == "__main__":
    main()
