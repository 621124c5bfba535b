import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from tin_gdof import cli, potential
from tin_gdof.analysis import max_weighted_gdof
from tin_gdof.model import DecodingOrder, NetworkSpec, User
from tin_gdof.regions import polyhedral_region
from tin_gdof.sampling import random_optimality_network

CLI = [sys.executable, "-m", "tin_gdof.cli"]
EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "example-network.json"


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )


def network_file(tmp_path, net, finite_snr=None, name="net.json"):
    doc = {
        "cells": net.cells,
        "users_per_cell": list(net.users_per_cell),
        "alpha": [
            {"tx_cell": u.cell, "tx_slot": u.slot, "rx_cell": i, "value": str(net.alpha(u, i))}
            for (u, i) in sorted(net.alpha_map)
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
    proc = subprocess.run(
        CLI + ["sumgdof", "--network", path, "--weights", ",".join(map(str, weights))],
        capture_output=True, text=True, timeout=60,
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


def test_simulate_csv():
    proc = run_cli(
        "simulate",
        "--geometry",
        "linear",
        "--r",
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


@pytest.mark.parametrize("radius_args", [["--r", "243", "--r-sweep", "100,243"], []])
def test_simulate_needs_exactly_one_radius_option(radius_args):
    proc = run_cli("simulate", "--geometry", "linear", *radius_args, "--L", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["Error: exactly one of --r and --r-sweep is required"]


def test_simulate_deterministic():
    args = [
        "simulate", "--geometry", "circular", "--cells", "4", "--r", "150",
        "--L", "1", "--trials", "30", "--seed", "11",
    ]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_docs_headings_list_every_option():
    # Each "### `sub ...`" heading of docs/cli.md names exactly the options of
    # that subcommand, and every subcommand has one.
    text = (EXAMPLE.parent / "cli.md").read_text()
    headings = re.findall(r"^### `([\w-]+)([^`]*)`", text, flags=re.MULTILINE)
    assert {name for name, _ in headings} == set(cli.cli.commands)
    for name, synopsis in headings:
        options = {opt for p in cli.cli.commands[name].params for opt in p.opts}
        assert set(re.findall(r"--[\w-]+", synopsis)) == options, name


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
    "outer-bound-snr-nan": ["outer-bound", "--snr", "nan"],
    "outer-bound-snr-inf": ["outer-bound", "--snr", "inf"],
    "gap-report-snr-overflow": ["gap-report", "--snr", "1e400"],
    "gap-report-snr-nan": ["gap-report", "--snr", "nan"],
    "membership-subnetwork-without-order": [
        "membership", "--d", "0.2,0.5,1.0", "--subnetwork", "1.1"
    ],
    "simulate-linear-cells": [
        "simulate", "--geometry", "linear", "--r", "100", "--L", "1", "--cells", "3"
    ],
}


@pytest.mark.parametrize("args", list(BAD_ARGUMENTS.values()), ids=list(BAD_ARGUMENTS))
def test_bad_argument_is_one_line_error(optimal_path, args):
    # optimal_path has no finite_snr block, so --snr is used for the rate model
    if args[0] != "simulate":
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
