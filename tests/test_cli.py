import ast
import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import tin_gdof
from tin_gdof import cli, errors, potential
from tin_gdof.analysis import achievable_gdof, max_weighted_gdof
from tin_gdof.errors import TinGdofError
from tin_gdof.model import DecodingOrder, NetworkSpec, User
from tin_gdof.regions import GdofTuple, polyhedral_region
from tin_gdof.sampling import (
    random_convexity_network,
    random_grid_allocation,
    random_optimality_network,
)

CLI = [sys.executable, "-m", "tin_gdof.cli"]
EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "example-network.json"


def run_cli(*args, timeout=300, **env):
    """``python -m tin_gdof.cli`` with ``args``, this checkout's ``src`` first
    on ``PYTHONPATH`` and ``env`` added to the environment."""
    src = str(Path(tin_gdof.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def network_file(tmp_path, net, finite_snr=None, name="net.json"):
    doc = {
        "cells": net.cells,
        "users_per_cell": list(net.users_per_cell),
        "alpha": [
            {"tx_cell": u.cell, "tx_slot": u.slot, "rx_cell": i, "value": str(net.alpha(u, i))}
            for u in net.users
            for i in range(1, net.cells + 1)
        ],
    }
    if finite_snr is not None:
        doc["finite_snr"] = finite_snr
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def optimal_path(tmp_path, pimac_optimal):
    return network_file(tmp_path, pimac_optimal, name="optimal.json")


@pytest.fixture
def nonconvex_path(tmp_path, pimac_nonconvex):
    return network_file(tmp_path, pimac_nonconvex, name="nonconvex.json")


def payload(proc):
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "tin-gdof/1"
    return doc["payload"]


@pytest.fixture
def convex_only_path(tmp_path, pimac_convex_only):
    return network_file(tmp_path, pimac_convex_only, name="convex_only.json")


def test_check_exit_codes(optimal_path, nonconvex_path, convex_only_path):
    ok = run_cli("check", "--network", optimal_path)
    assert ok.returncode == 0
    assert payload(ok)["optimality_holds"] is True

    convex_only = run_cli("check", "--network", convex_only_path)
    assert convex_only.returncode == 1
    assert payload(convex_only)["convexity_holds"] is True

    bad = run_cli("check", "--network", nonconvex_path, "--pimac-regime")
    assert bad.returncode == 2
    data = payload(bad)
    assert data["optimality_holds"] is False
    assert data["pimac_regime"]["label"] == "in-box-not-convex"
    assert data["violations"]


def test_check_bad_usage_exit_code(tmp_path):
    missing = run_cli("check", "--network", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad_file = tmp_path / "broken.json"
    bad_file.write_text("{")
    broken = run_cli("check", "--network", str(bad_file))
    assert broken.returncode == 2
    assert "error" in broken.stderr
    # A JSON boolean is not a number: the record at 1.0 set to true is refused,
    # not read as level 1.
    doc = json.loads(EXAMPLE.read_text())
    doc["alpha"][0]["value"] = True
    bool_file = tmp_path / "bool.json"
    bool_file.write_text(json.dumps(doc))
    boolean = run_cli("check", "--network", str(bool_file))
    assert boolean.returncode == 2 and boolean.stdout == ""
    assert "True is not an exact number" in boolean.stderr


def test_region_emits_running_example(nonconvex_path):
    proc = run_cli("region", "--network", nonconvex_path, "--order", "id")
    assert proc.returncode == 0
    ineqs = payload(proc)["inequalities"]
    assert len(ineqs) == 5
    triple = next(q for q in ineqs if len(q["users"]) == 3)
    assert triple["rhs"]["exact"] == "3/2"


def test_region_csv(nonconvex_path):
    proc = run_cli("region", "--network", nonconvex_path, "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "users,rhs,rhs_float"
    assert len(lines) == 6


@pytest.mark.parametrize("records", ["tx_powers", "gains"])
def test_check_refuses_a_finite_snr_boolean(tmp_path, records):
    # A JSON true in the finite-SNR block was read as 1.0.
    doc = json.loads(EXAMPLE.read_text())
    doc["finite_snr"][records][0]["value"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", "--network", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "True is a boolean" in lines[0], proc.stderr


def file_edge_length(level, d, tail, head):
    """The length of the identity-order potential-graph edge ``tail ->
    head``, written from a network file's levels, keyed ``(tx_cell,
    tx_slot, rx_cell)``, and a tuple; users are ``"cell.slot"`` strings and
    ``"0.0"`` is ground."""
    if tail == "0.0":
        return Fraction(0)
    (kt, lt), own = map(int, tail.split(".")), d[tail]
    direct = level[kt, lt, kt]
    if head == "0.0":
        return direct - own
    kh, lh = map(int, head.split("."))
    if kh != kt:
        return direct - level[kh, lh, kt] - own
    return direct - own if lt < lh else direct - level[kh, lh, kh] - own


def test_membership_witness_circuit_resums_from_the_file(tmp_path):
    # A tuple just outside the identity-order region of a seeded 3 x 2
    # convexity network: the printed circuit is simple, and its edges,
    # written from the file's levels and --d alone, sum to the printed
    # negative length.
    rng = random.Random(25)
    net = random_convexity_network(rng, cells=3, users_per_cell=[2, 2, 2])
    order = DecodingOrder.identity(net)
    for _ in range(50):
        achievable = achievable_gdof(net, order, random_grid_allocation(rng, net))
        d = GdofTuple({u: v * Fraction(101, 100) for u, v in achievable.items()})
        g = potential.build_potential_graph(net, order, None, d)
        witness = potential.feasible_by_negative_cycle(g).witness
        if witness is not None and len(witness.vertices) >= 3:
            break
    else:
        pytest.fail("no non-member with a circuit of three or more vertices")
    path = network_file(tmp_path, net)
    d_spec = ",".join(str(d[u]) for u in net.users)
    proc = run_cli("membership", "--network", path, "--d", d_spec, "--order", "id")
    assert proc.returncode == 1, proc.stderr
    circuit = payload(proc)["witness_circuit"]
    verts = circuit["vertices"]
    assert len(verts) >= 2 and len(set(verts)) == len(verts)
    level = {
        (r["tx_cell"], r["tx_slot"], r["rx_cell"]): Fraction(r["value"])
        for r in json.loads(Path(path).read_text())["alpha"]
    }
    d_of = dict(zip((f"{u.cell}.{u.slot}" for u in net.users), map(Fraction, d_spec.split(","))))
    total = sum(
        (file_edge_length(level, d_of, verts[i - 1], verts[i]) for i in range(len(verts))),
        Fraction(0),
    )
    assert total == Fraction(circuit["length"]["exact"]) < 0


def test_membership_fixed_and_general(nonconvex_path):
    fixed = run_cli(
        "membership", "--network", nonconvex_path, "--d", "0.2,0.5,1.0", "--order", "id"
    )
    assert fixed.returncode == 1
    assert payload(fixed)["witness_circuit"]["length"]["float"] < 0

    general = run_cli("membership", "--network", nonconvex_path, "--d", "0.2,0.5,1.0")
    assert general.returncode == 0
    data = payload(general)
    assert data["witness"]["order"] == [[2, 1], [1]]

    over = run_cli("membership", "--network", nonconvex_path, "--d", "0.26,0.65,1.3")
    assert over.returncode == 1


def test_fixed_order_membership_runs_one_relaxation_pass(monkeypatch, nonconvex_path):
    original = potential._bellman_ford
    passes = []

    def counting(g):
        passes.append(g)
        return original(g)

    monkeypatch.setattr(potential, "_bellman_ford", counting)
    for d, code in (("0.2,0.1,0.5", 0), ("0.2,0.5,1.0", 1)):
        passes.clear()
        result = CliRunner().invoke(
            cli.cli, ["membership", "--network", nonconvex_path, "--d", d, "--order", "id"]
        )
        assert result.exit_code == code, result.output
        assert json.loads(result.output)["payload"]["member"] == (code == 0)
        assert len(passes) == 1


def test_membership_subnetwork(nonconvex_path):
    proc = run_cli(
        "membership",
        "--network",
        nonconvex_path,
        "--d",
        "0,0.5,0.4",
        "--order",
        "2|1",
        "--subnetwork",
        "1.2,2.1",
    )
    assert proc.returncode in (0, 1)
    assert json.loads(proc.stdout)["status"] in ("ok", "violation")


def test_sumgdof(optimal_path):
    proc = run_cli("sumgdof", "--network", optimal_path, "--weights", "1,1,1")
    assert proc.returncode == 0
    assert payload(proc)["value"]["exact"] == "19/10"


def test_sumgdof_ten_cells(tmp_path):
    # A regression back to the explicit region (about 10^7 rows) fails on the
    # timeout instead of hanging.
    rng = random.Random(46)
    net = random_optimality_network(rng, cells=10, users_per_cell=[2] * 10)
    weights = [Fraction(rng.randint(0, 12), 4) for _ in net.users]
    path = network_file(tmp_path, net)
    proc = run_cli(
        "sumgdof", "--network", path, "--weights", ",".join(map(str, weights)), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    region = polyhedral_region(net, DecodingOrder.identity(net))
    expected = max_weighted_gdof(region, dict(zip(net.users, weights))).value
    assert payload(proc)["value"]["exact"] == str(expected)


def test_vertices_csv(optimal_path):
    proc = run_cli("vertices", "--network", optimal_path, "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "1.1,1.2,2.1"
    assert len(lines) > 4


def test_vertices_guard_is_one_line_error(tmp_path):
    # The 3 cells x 3 users of test_analysis.py::test_vertices_guard.
    alpha = {
        (User(k, l), i): Fraction(l) if i == k else Fraction(0)
        for k in range(1, 4)
        for l in (1, 2, 3)
        for i in range(1, 4)
    }
    net = NetworkSpec.from_alpha(3, [3, 3, 3], alpha)
    proc = run_cli("vertices", "--network", network_file(tmp_path, net))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "vertex enumeration guard (8)" in lines[0]


def test_outer_bound_gdof_and_rates(optimal_path, nonconvex_path):
    gdof = run_cli("outer-bound", "--network", optimal_path)
    assert gdof.returncode == 0
    assert len(payload(gdof)["inequalities"]) == 5

    rates = run_cli("outer-bound", "--network", optimal_path, "--snr", "10000")
    assert rates.returncode == 0
    assert all(b["rhs_bits"] > 0 for b in payload(rates)["bounds"])

    refused = run_cli("outer-bound", "--network", nonconvex_path)
    assert refused.returncode == 2


def test_outer_bound_uses_file_finite_snr(tmp_path, pimac_optimal):
    p = 100.0
    gains = [
        {
            "tx_cell": u.cell,
            "tx_slot": u.slot,
            "rx_cell": i,
            "value": float(p ** (float(pimac_optimal.alpha(u, i)) / 2.0)),
        }
        for u in pimac_optimal.users
        for i in (1, 2)
    ]
    block = {
        "nominal_power": p,
        "gains": gains,
        "tx_powers": [
            {"cell": u.cell, "slot": u.slot, "value": 1.0} for u in pimac_optimal.users
        ],
    }
    path = network_file(tmp_path, pimac_optimal, finite_snr=block, name="fs.json")
    proc = run_cli("outer-bound", "--network", path, "--snr", "999")  # block wins
    assert proc.returncode == 0
    cell_bounds = [b for b in payload(proc)["bounds"] if b["kind"] == "cell"]
    import math

    assert any(
        abs(b["rhs_bits"] - math.log2(1 + p**1.0)) < 1e-9
        for b in cell_bounds
        if len(b["users"]) == 1
    )


def test_snr_ignored_for_file_block_is_noted(optimal_path):
    # the example file carries a finite_snr block with nominal power 10000
    for cmd in ("outer-bound", "gap-report"):
        ignored = run_cli(cmd, "--network", str(EXAMPLE), "--snr", "999")
        matching = run_cli(cmd, "--network", str(EXAMPLE), "--snr", "10000")
        assert ignored.returncode == matching.returncode == 0
        assert ignored.stdout == matching.stdout
        assert ignored.stderr.splitlines() == [
            "note: --snr 999 ignored; using nominal power 10000 "
            "from the file's finite_snr block"
        ]
    # without a block, --snr is used and nothing is noted
    assert run_cli("outer-bound", "--network", optimal_path, "--snr", "999").stderr == ""


@pytest.mark.parametrize("snr", ["nan", "-1", "inf", "1"])
def test_invalid_snr_is_refused_with_a_file_block(tmp_path, snr):
    # The example file's finite_snr block replaces --snr, but an invalid
    # value is refused as it is without the block: one error line, exit 2.
    doc = json.loads(EXAMPLE.read_text())
    del doc["finite_snr"]
    without_block = tmp_path / "no-block.json"
    without_block.write_text(json.dumps(doc))
    for cmd in ("outer-bound", "gap-report"):
        refused = [
            run_cli(cmd, "--network", str(path), "--snr", snr) for path in (EXAMPLE, without_block)
        ]
        for proc in refused:
            assert proc.returncode == 2 and proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert refused[0].stderr == refused[1].stderr


def _set_first(records, value):
    records[0]["value"] = value


MALFORMED = {
    "truncated-json": "{bad",
    "top-level-list": "[1,2]",
    "missing-users-per-cell": lambda doc: doc.pop("users_per_cell"),
    "non-list-alpha": lambda doc: doc.update(alpha=5),
    "non-numeric-alpha": lambda doc: _set_first(doc["alpha"], "x"),
    "list-alpha": lambda doc: _set_first(doc["alpha"], [1]),
    "non-numeric-gain": lambda doc: _set_first(doc["finite_snr"]["gains"], "z"),
    "duplicate-tx-power": lambda doc: doc["finite_snr"]["tx_powers"].append(
        {"cell": 1, "slot": 1, "value": 5.0}
    ),
    "empty-gains": lambda doc: doc["finite_snr"].update(gains=[]),
    "nan-gain": lambda doc: _set_first(doc["finite_snr"]["gains"], float("nan")),
    "nan-tx-power": lambda doc: _set_first(doc["finite_snr"]["tx_powers"], float("nan")),
    "tx-power-of-unknown-cell": lambda doc: doc["finite_snr"]["tx_powers"].append(
        {"cell": 3, "slot": 1, "value": 1.0}
    ),
    "tx-power-of-slot-0": lambda doc: doc["finite_snr"]["tx_powers"].append(
        {"cell": 1, "slot": 0, "value": 1.0}
    ),
    # Counts and record indices must be integers; each was truncated before.
    "fractional-users-per-cell": lambda doc: doc.update(users_per_cell=[2.5, 1]),
    "fractional-cells": lambda doc: doc.update(cells=2.9),
    "fractional-tx-slot": lambda doc: doc["alpha"][0].update(tx_slot=1.5),
    "fractional-tx-power-slot": lambda doc: doc["finite_snr"]["tx_powers"][0].update(slot=1.5),
}


@pytest.mark.parametrize(
    "command",
    [["check"], ["outer-bound", "--snr", "100"], ["gap-report", "--snr", "100"]],
    ids=["check", "outer-bound", "gap-report"],
)
@pytest.mark.parametrize("defect", list(MALFORMED))
def test_malformed_file_gives_one_line_error(tmp_path, defect, command):
    edit = MALFORMED[defect]
    if isinstance(edit, str):
        text = edit
    else:
        doc = json.loads(EXAMPLE.read_text())
        edit(doc)
        text = json.dumps(doc)
    path = tmp_path / "bad.json"
    path.write_text(text)
    proc = run_cli(command[0], "--network", str(path), *command[1:])
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


NETWORK_COMMANDS = [
    ["check"],
    ["region"],
    ["membership", "--d", "0,0,0"],
    ["sumgdof", "--weights", "1,1,1"],
    ["vertices"],
    ["outer-bound"],
    ["outer-bound", "--snr", "100"],
    ["gap-report", "--snr", "100"],
]


@pytest.mark.parametrize("command", NETWORK_COMMANDS, ids=" ".join)
def test_gain_without_budget_fails_every_subcommand_at_load(tmp_path, command):
    # check and region exited 0 on such a file; the rate commands failed
    # later, with an error that did not name the file.
    doc = json.loads(EXAMPLE.read_text())
    doc["finite_snr"]["tx_powers"].pop()  # u(2,1) keeps its two gains
    path = tmp_path / "no-budget.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command[0], "--network", str(path), *command[1:])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {path}: gains[4]: no power budget for user u(2,1)"
    ]


def test_gap_report(optimal_path):
    proc = run_cli("gap-report", "--network", optimal_path, "--snr", "10000")
    assert proc.returncode == 0
    data = payload(proc)
    assert data["max_gap_bits"] >= 0
    assert all(b["gap_bits"] >= -1e-9 for b in data["per_bound"])


def test_gap_report_rejects_corners(optimal_path):
    capped = run_cli("gap-report", "--network", optimal_path, "--snr", "10000", "--corners", "2")
    assert capped.returncode == 2 and capped.stdout == ""
    assert "No such option '--corners'" in capped.stderr


@pytest.mark.parametrize("command", ["outer-bound", "gap-report"])
def test_link_power_overflow_is_one_line_error(tmp_path, command):
    # Without the block, --snr 1e250 synthesizes |h|^2 = 1e375 for the 1.5 link.
    doc = json.loads(EXAMPLE.read_text())
    del doc["finite_snr"]
    path = tmp_path / "no-block.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, "--network", str(path), "--snr", "1e250")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: link u(1,2)->rx1 has a power beyond the float range"
    ]
    assert run_cli(command, "--network", str(path), "--snr", "1e200").returncode == 0


@pytest.mark.parametrize("command", ["check", "outer-bound"])
def test_link_power_overflow_in_a_file_names_the_file(tmp_path, command):
    # Every other error of a finite_snr block names its file; this one did not.
    doc = json.loads(EXAMPLE.read_text())
    doc["finite_snr"]["gains"][0]["value"] = 1e200
    path = tmp_path / "huge-gain.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, "--network", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {path}: link u(1,1)->rx1 has a power beyond the float range"
    ]


def _huge_level_file(tmp_path):
    # 1e400 is an exact level; only its float in the output is out of range.
    text = EXAMPLE.read_text()
    assert text.count('"value": 1.5') == 1
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"value": 1.5', '"value": 1e400'))
    return str(path)


@pytest.mark.parametrize(
    "huge_file, args",
    [
        (False, ["sumgdof", "--weights", "1e400,1,1"]),
        (True, ["sumgdof", "--weights", "1,1,1"]),
        (True, ["region"]),
        (True, ["region", "--format", "csv"]),
        (True, ["vertices", "--format", "csv"]),
        (True, ["outer-bound"]),
    ],
    ids=["sumgdof-weights", "sumgdof", "region", "region-csv", "vertices-csv", "outer-bound"],
)
def test_value_beyond_float_range_is_one_line_error(tmp_path, huge_file, args):
    # Each printed an OverflowError traceback and exited 1, the code of a
    # negative result; the CSV writers had already written their header.
    path = _huge_level_file(tmp_path) if huge_file else str(EXAMPLE)
    proc = run_cli(args[0], "--network", path, *args[1:])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: exact value 1e+400 is beyond the float range of output"
    ]


def test_exact_output_of_a_value_beyond_float_range(tmp_path):
    # Fields without a float keep the exact value.
    path = _huge_level_file(tmp_path)
    proc = run_cli("vertices", "--network", path)
    assert proc.returncode == 0, proc.stderr
    assert str(10**400) in {x for v in payload(proc)["vertices"] for x in v}
    with pytest.raises(TinGdofError, match=r"^exact value -1\.5e\+500 is beyond"):
        cli._float(Fraction(-3 * 10**500, 2))


def test_simulate_csv():
    proc = run_cli(
        "simulate",
        "--geometry",
        "linear",
        "--r-sweep",
        "243",
        "--L",
        "2",
        "--trials",
        "25",
        "--seed",
        "3",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "r_m,L,p_convexity,p_optimality,trials,ci95"
    row = lines[1].split(",")
    assert float(row[2]) == 1.0 and float(row[3]) == 1.0

    both = run_cli("simulate", "--geometry", "linear", "--L", "1")
    assert both.returncode == 2


@pytest.mark.parametrize("radius_args", [["--r", "243"], []])
def test_simulate_needs_exactly_one_radius_option(radius_args):
    # --r-sweep is the one radius option, required; the removed --r is refused.
    proc = run_cli("simulate", "--geometry", "linear", *radius_args, "--L", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = "No such option '--r'." if radius_args else "Missing option '--r-sweep'."
    assert proc.stderr.splitlines()[-1].startswith(f"Error: {error}")


def test_simulate_deterministic():
    args = [
        "simulate", "--geometry", "circular", "--cells", "4", "--r-sweep", "150",
        "--L", "1", "--trials", "30", "--seed", "11",
    ]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_simulate_refuses_a_ring_beyond_the_block_budget():
    proc = run_cli(
        "simulate", "--geometry", "circular", "--cells", str(10**15), "--r-sweep", "150",
        "--L", "1", "--trials", "5",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "block budget" in lines[0]


@pytest.mark.parametrize(
    "args",
    [
        ("sumgdof", "--weights", "1,1,1"),
        ("sumgdof", "--weights", "3,1,2"),
        ("membership", "--d", "0.2,0.5,1.0"),
        ("membership", "--d", "0,0.5,1.0"),
        ("membership", "--d", "1,1,1", "--order", "id"),
    ],
)
def test_output_does_not_depend_on_the_hash_seed(args):
    # docs/cli.md promises that one input always prints the same value,
    # argmax, witness or circuit; no set or dict order of hashed keys may
    # reach the output.
    first, second = (
        run_cli(args[0], "--network", str(EXAMPLE), *args[1:], PYTHONHASHSEED=seed)
        for seed in ("0", "1")
    )
    assert first.stdout
    assert (first.returncode, first.stdout, first.stderr) == (
        second.returncode, second.stdout, second.stderr
    )


def test_docs_headings_list_every_option():
    # Each "### `sub ...`" heading of docs/cli.md names exactly the options of
    # that subcommand, and every subcommand has one.
    text = (EXAMPLE.parent / "cli.md").read_text()
    headings = re.findall(r"^### `([\w-]+)([^`]*)`", text, flags=re.MULTILINE)
    assert {name for name, _ in headings} == set(cli.cli.commands)
    for name, synopsis in headings:
        options = {opt for p in cli.cli.commands[name].params for opt in p.opts}
        assert set(re.findall(r"--[\w-]+", synopsis)) == options, name


def test_readme_module_bullets_name_only_live_attributes():
    # Each backticked snake_case name in a module bullet of README's "What
    # the library computes" is an attribute of that module or of the
    # package, so a deleted or renamed function fails here.  The ``cli``
    # bullet's backticks are JSON fields, not attributes.
    text = (EXAMPLE.parent.parent / "README.md").read_text()
    section = text.split("\n## What the library computes\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* \*\*`(\w+)`\*\* —(.*?)(?=^\* |\Z)", section, flags=re.M | re.S)
    assert {name for name, _ in bullets} >= {"model", "regions", "potential", "analysis"}
    checked = 0
    for name, body in bullets:
        if name == "cli":
            continue
        module = importlib.import_module(f"tin_gdof.{name}")
        for attr in re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", body):
            assert hasattr(module, attr) or hasattr(tin_gdof, attr), (name, attr)
            checked += 1
    assert checked >= 10


PUBLIC_NAMES = [
    "BoundIndex", "ConditionReport", "DecodingOrder", "FiniteSnrSpec", "GdofTuple",
    "LinearInequality", "NetworkSpec", "PolyRegion", "PotentialGraph", "PowerAllocation",
    "Subnetwork", "User", "achievable_gdof", "achievable_rates", "all_circuits_region_oracle",
    "bound_indices", "build_potential_graph", "classify_pimac", "enumerate_cyclic_sequences",
    "enumerate_orders", "evaluate_conditions", "feasible_by_negative_cycle", "gap_report",
    "gdof_outer_bound", "general_membership", "load_network", "max_weighted_gdof", "membership",
    "outer_bound_rates", "polyhedral_region", "region_includes",
    "strength_levels", "vertices",
]
# Definitions that only the tests used; they live in tests/conftest.py.
TEST_ONLY = {
    "regions": ["set_function_f", "bound_rhs"],
    "conditions": ["outer_bound_user_partition", "UserPartition"],
}
TEST_ONLY_METHODS = [
    (GdofTuple, "zero"), (GdofTuple, "scaled"), (NetworkSpec, "scaled"),
    (potential.PowerAllocation, "is_off"),
]


def test_package_surface():
    assert sorted(tin_gdof.__all__) == PUBLIC_NAMES
    for module, names in TEST_ONLY.items():
        for name in names:
            assert not hasattr(tin_gdof, name), name
            assert not hasattr(importlib.import_module(f"tin_gdof.{module}"), name), name
    for cls, name in TEST_ONLY_METHODS:
        assert not hasattr(cls, name), (cls, name)


def test_every_error_type_is_raised_in_src():
    # An exception type that no module of the package raises is surface no
    # caller can meet.
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    defined = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, TinGdofError)
    }
    assert len(defined) > 1 and defined <= raised, defined - raised


def test_sources_parse_at_the_declared_python_floor():
    # Syntax newer than pyproject.toml's requires-python, such as an
    # except* clause on a 3.10 floor, fails here on any newer interpreter.
    root = EXAMPLE.parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    assert floor == (3, 10)
    sources = sorted((root / "src" / "tin_gdof").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def readme_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``## section``."""
    text = (EXAMPLE.parent.parent / "README.md").read_text()
    after = text.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", after, flags=re.DOTALL).group(1)


def test_readme_library_quickstart_prints_its_comments(capsys):
    exec(compile(readme_block("Library quickstart", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["False", "((2, 1), (1,))", "False"]


def test_readme_cli_quickstart_parses(monkeypatch):
    # Every line parses with the current options, so a deleted or renamed
    # option fails here; nothing runs.
    monkeypatch.chdir(EXAMPLE.parent.parent)
    names = []
    for line in readme_block("CLI quickstart", "sh").splitlines():
        prog, name, *args = shlex.split(line)
        assert prog == "tin-gdof"
        cli.cli.commands[name].make_context(name, args)
        names.append(name)
    assert sorted(names) == sorted(cli.cli.commands)


def test_oracle_verify():
    proc = run_cli("oracle-verify", "--instances", "40", "--seed", "5")
    assert proc.returncode == 0
    data = payload(proc)
    assert data["negative_cycle_mismatches"] == 0
    assert data["all_circuits_mismatches"] == 0


BAD_ARGUMENTS = {
    "subnetwork-no-dot": ["region", "--subnetwork", "1"],
    "subnetwork-bad-slot": ["region", "--subnetwork", "1.x"],
    "order-bad-slot": ["region", "--order", "1,x"],
    "d-not-numbers": ["membership", "--d", "a,b,c"],
    "d-too-few": ["membership", "--d", "1,2"],
    "d-zero-denominator": ["membership", "--d", "1/0,1,1"],
    "weights-not-numbers": ["sumgdof", "--weights", "x,1,1"],
    "weights-negative": ["sumgdof", "--weights", "-1,1,1"],
    "r-sweep-not-numbers": ["simulate", "--geometry", "linear", "--L", "1", "--r-sweep", "100,x"],
    "r-sweep-empty": ["simulate", "--geometry", "linear", "--L", "1", "--r-sweep", ","],
    "simulate-r-inf": ["simulate", "--geometry", "circular", "--L", "1", "--r-sweep", "inf"],
    "simulate-r-overflow": ["simulate", "--geometry", "linear", "--L", "1", "--r-sweep", "1e308"],
    "oracle-verify-negative-instances": ["oracle-verify", "--instances", "-3"],
    "outer-bound-snr-nan": ["outer-bound", "--snr", "nan"],
    "outer-bound-snr-inf": ["outer-bound", "--snr", "inf"],
    "gap-report-snr-overflow": ["gap-report", "--snr", "1e400"],
    "gap-report-snr-nan": ["gap-report", "--snr", "nan"],
    "membership-subnetwork-without-order": [
        "membership", "--d", "0.2,0.5,1.0", "--subnetwork", "1.1"
    ],
    "simulate-linear-cells": [
        "simulate", "--geometry", "linear", "--r-sweep", "100", "--L", "1", "--cells", "3"
    ],
    "d-empty-item": ["membership", "--d", "0.2,,0.5,1.0"],
    "weights-trailing-comma": ["sumgdof", "--weights", "1,1,1,"],
    "order-empty-item": ["region", "--order", "1,,2|1"],
    "subnetwork-empty-item": ["region", "--subnetwork", "1.1,,2.1"],
    "r-sweep-empty-item": ["simulate", "--geometry", "linear", "--L", "1", "--r-sweep", "80,,120"],
}


@pytest.mark.parametrize("args", list(BAD_ARGUMENTS.values()), ids=list(BAD_ARGUMENTS))
def test_bad_argument_is_one_line_error(optimal_path, args):
    # optimal_path has no finite_snr block, so --snr is used for the rate model
    if args[0] not in ("simulate", "oracle-verify"):
        args = [args[0], "--network", optimal_path, *args[1:]]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("weights", ["1,1", "1,1,1,5"])
def test_weights_take_one_value_per_user(optimal_path, weights):
    proc = run_cli("sumgdof", "--network", optimal_path, "--weights", weights)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"Error: invalid --weights value '{weights}': expected 3 nonnegative values, one per user"
    ]


def test_exact_levels_settle_a_tie(tmp_path):
    # Optimality holds with equality: 5/6 = 1/6 + 2/3 at cell 1's receiver.
    # Levels re-derived from the unit-power gains came back as
    # 0.833333333 > 0.166666667 + 0.666666667, and the rate commands refused.
    alpha = {
        (User(1, 1), 1): Fraction(5, 6),
        (User(1, 1), 2): Fraction(1, 6),
        (User(2, 1), 1): Fraction(2, 3),
        (User(2, 1), 2): Fraction(5, 3),
    }
    path = network_file(tmp_path, NetworkSpec.from_alpha(2, [1, 1], alpha))
    for args in (["check"], ["outer-bound", "--snr", "10000"], ["gap-report", "--snr", "10000"]):
        proc = run_cli(args[0], "--network", path, *args[1:])
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stderr == ""


@pytest.mark.parametrize(
    "args",
    [["check"], ["sumgdof", "--weights", "1,1,1"], ["outer-bound", "--snr", "100"],
     ["gap-report", "--snr", "100"]],
    ids=["check", "sumgdof", "outer-bound", "gap-report"],
)
def test_each_subcommand_reads_the_network_file_once(monkeypatch, args):
    original = json.load
    reads = []

    def counting(*a, **kw):
        reads.append(a)
        return original(*a, **kw)

    monkeypatch.setattr(json, "load", counting)
    result = CliRunner().invoke(cli.cli, [args[0], "--network", str(EXAMPLE), *args[1:]])
    assert result.exit_code == 0, result.output
    assert len(reads) == 1
