"""Command-line surface: subcommands, formats, and exit codes."""

import json
import math

import pytest

from vecopt.cli import (
    DEFAULT_NODE_LIMIT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    build_parser,
    main,
)
from vecopt.power import derive_power_params, hop_energy_per_bit
from vecopt.scenario import load_scenario, validate_scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, *extra):
    path = tmp_path / "scenario.json"
    code = main(
        ["scenario", "--class", "small", "--requests", "2", "--out", str(path)]
        + list(extra)
    )
    assert code == EXIT_OK
    return path


def test_scenario_writes_a_loadable_file(tmp_path, capsys):
    path = write_scenario(tmp_path)
    scenario = load_scenario(path)
    assert validate_scenario(scenario) == []
    assert len(scenario.demands) == 2


def test_scenario_is_reproducible(tmp_path):
    a = write_scenario(tmp_path).read_bytes()
    b = write_scenario(tmp_path).read_bytes()
    assert a == b


def test_scenario_to_stdout(capsys):
    code, out, _ = run(capsys, "scenario", "--class", "large", "--requests", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert {n["tier"] for n in doc["nodes"]} == {"vehicle", "edge", "cloud"}
    assert doc["demands"][0]["workload_mips"] == 11520.0


def test_scenario_rejects_bad_counts(capsys):
    code, _, err = run(capsys, "scenario", "--class", "small", "--requests", "21")
    assert code == EXIT_USAGE
    assert "error" in err


def test_solve_reports_the_optimum(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["objective_w"] == pytest.approx(30.6967, abs=1e-4)
    assert doc["gap"] == 0
    assert doc["cloud_mips"] == 0
    assert doc["saving_pct"] == pytest.approx(88.9554, abs=1e-4)
    assigned = sum(a["mips"] for a in doc["placement"]["assignments"])
    assert assigned == pytest.approx(2 * 2880.0)
    # identical solves export identical documents
    code2, out2, _ = run(capsys, "solve", str(path))
    assert (code2, out2) == (code, out)


def test_solve_node_limit_exits_timeout(tmp_path, capsys):
    path = tmp_path / "hard.json"
    assert (
        main(
            ["scenario", "--class", "small", "--requests", "6", "--out", str(path)]
        )
        == EXIT_OK
    )
    code, out, _ = run(capsys, "solve", str(path), "--node-limit", "1")
    assert code == EXIT_TIMEOUT
    doc = json.loads(out)
    assert doc["status"] == "timeout"
    assert doc["objective_w"] is not None  # incumbent still exported
    assert doc["gap"] > 0


def test_solve_has_a_default_node_budget(tmp_path, capsys):
    # large@5 is not proven within the default budget; without one its
    # solve runs for minutes
    path = tmp_path / "large5.json"
    argv = ["scenario", "--class", "large", "--requests", "5"]
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    code, out, _ = run(capsys, "solve", str(path))
    assert code == EXIT_TIMEOUT
    doc = json.loads(out)
    assert doc["status"] == "timeout"
    assert math.isfinite(doc["gap"]) and doc["gap"] > 0


def test_parser_defaults_to_one_worker_and_the_node_budget():
    parser = build_parser()
    sweep = parser.parse_args(["sweep"])
    assert sweep.workers == 1
    assert sweep.node_limit == DEFAULT_NODE_LIMIT
    assert parser.parse_args(["solve", "s.json"]).node_limit == (
        DEFAULT_NODE_LIMIT
    )


def test_solve_infeasible_exits_one(tmp_path, capsys):
    vehicle = {
        "id": "v0",
        "tier": "vehicle",
        "max_power_w": 10.0,
        "idle_power_w": 5.0,
        "processing_fraction": 0.58,
        "communication_fraction": 0.21,
        "capacity_mips": 1600.0,
        "interfaces": [
            {"kind": "dsrc", "capacity_bps": 27e6},
            {"kind": "wifi", "capacity_bps": 150e6},
        ],
    }
    doc = {
        "nodes": [vehicle, dict(vehicle, id="v1")],
        "demands": [{"id": "d0", "source": "v0", "workload_mips": 4000.0}],
    }
    path = tmp_path / "too_big.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == EXIT_INFEASIBLE
    assert json.loads(out)["status"] == "infeasible"


def test_solve_rejects_garbage_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", str(path))
    assert code == EXIT_USAGE
    assert "invalid scenario" in err
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == EXIT_USAGE


def solve_edited(tmp_path, capsys, edit):
    """Solve a written scenario after ``edit`` changes its document."""
    path = write_scenario(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return run(capsys, "solve", str(path))


def test_solve_rejects_a_nan_capacity(tmp_path, capsys):
    def edit(doc):
        doc["nodes"][0]["capacity_mips"] = float("nan")

    code, out, err = solve_edited(tmp_path, capsys, edit)
    assert code == EXIT_USAGE
    assert out == ""
    assert "capacity_mips must be a finite number" in err
    assert "Traceback" not in err


def test_solve_rejects_an_infinite_workload(tmp_path, capsys):
    def edit(doc):
        doc["demands"][0]["workload_mips"] = float("inf")

    code, out, err = solve_edited(tmp_path, capsys, edit)
    assert code == EXIT_USAGE
    assert out == ""
    assert "workload_mips must be a finite number" in err
    assert "Traceback" not in err


def test_solve_rejects_a_string_workload(tmp_path, capsys):
    def edit(doc):
        doc["demands"][0]["workload_mips"] = "2880"

    code, out, err = solve_edited(tmp_path, capsys, edit)
    assert code == EXIT_USAGE
    assert out == ""
    assert "workload_mips must be a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("wired", [True, False])
def test_solve_rejects_an_unpriceable_node(tmp_path, capsys, wired):
    def edit(doc):
        doc["nodes"][0]["processing_fraction"] = 0
        if not wired:  # the loader wires links from the node numbers
            del doc["links"], doc["routes"]

    code, out, err = solve_edited(tmp_path, capsys, edit)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(
        "error: invalid scenario file: node v0: no processing power budget"
    )
    assert "Traceback" not in err


def test_solve_prices_hops_from_the_node_ratings(tmp_path, capsys):
    # Earlier versions stored each link's energy_per_bit; a stored figure
    # ten times the one the ratings give moves neither the objective nor
    # the priced total.
    path = tmp_path / "scenario.json"
    argv = ["scenario", "--class", "small", "--requests", "3"]
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    code, wired, _ = run(capsys, "solve", str(path))
    assert code == EXIT_OK
    scenario = load_scenario(path)
    params = {
        n.id: derive_power_params(n, scenario.options) for n in scenario.nodes
    }
    doc = json.loads(path.read_text())
    for link, entry in zip(scenario.links, doc["links"]):
        entry["energy_per_bit"] = 10 * hop_energy_per_bit(params, link)
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == EXIT_OK
    solved = json.loads(out)
    assert solved["objective_w"] == json.loads(wired)["objective_w"]
    assert solved["objective_w"] == solved["power"]["total_w"]


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("nodes",), 5, id="nodes-a-number"),
        pytest.param(("nodes", 0), 5, id="node-a-number"),
        pytest.param(("demands", 0), 7, id="demand-a-number"),
        pytest.param(
            ("demands",),
            {"d0": {"id": "d0", "source": "v0", "workload_mips": 2880.0}},
            id="demands-an-object",
        ),
        pytest.param(("routes",), [], id="routes-a-list"),
        pytest.param(("routes", "v0->v1"), 5, id="route-links-a-number"),
        pytest.param(("nodes", 0, "id"), ["v0"], id="node-id-a-list"),
        pytest.param(("links", 0, "id"), ["v0>v1"], id="link-id-a-list"),
        pytest.param(("demands", 0, "source"), ["v0"], id="demand-source-a-list"),
        pytest.param(("links", 0), "v0>v1", id="link-a-string"),
        pytest.param(("nodes", 0, "interfaces", 0), 5, id="interface-a-number"),
    ],
)
def test_solve_rejects_a_document_of_the_wrong_shape(tmp_path, capsys, path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    code, out, err = solve_edited(tmp_path, capsys, edit)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: invalid scenario file:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, value",
    [
        ("instructions_per_bit", "2000"),
        ("cloud_path_energy_per_bit", "5e-7"),
        ("cloud_server_capacity", None),
        ("cloud_provisioning", 1),
        ("dsrc_medium", ["shared"]),
    ],
)
def test_solve_rejects_a_model_option_of_the_wrong_type(
    tmp_path, capsys, name, value
):
    def edit(doc):
        doc["options"][name] = value
        # absent traffic is derived from instructions_per_bit while reading
        del doc["demands"][0]["traffic_bps"]

    code, out, err = solve_edited(tmp_path, capsys, edit)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: invalid scenario file:" in err
    assert f"options: {name} must be" in err
    assert "Traceback" not in err


def test_sweep_csv_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--classes",
        "small",
        "--requests",
        "1:2",
        "--workers",
        "1",
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("demand_class,request_count,total_power_w")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "small"


def test_sweep_worker_counts_agree_byte_for_byte(tmp_path, capsys):
    args = ["sweep", "--classes", "small", "--requests", "1,2", "--out"]
    one = tmp_path / "w1.csv"
    two = tmp_path / "w2.csv"
    assert main(args + [str(one), "--workers", "1"]) == EXIT_OK
    assert main(args + [str(two), "--workers", "2"]) == EXIT_OK
    assert one.read_bytes() == two.read_bytes()


def test_sweep_json_echoes_options(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--classes",
        "small",
        "--requests",
        "1",
        "--workers",
        "1",
        "--format",
        "json",
        "--cloud-energy-per-bit",
        "6e-7",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["options"]["cloud_path_energy_per_bit"] == 6e-7
    assert len(doc["rows"]) == 1


def test_sweep_budget_exhaustion_exits_timeout(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--classes",
        "small",
        "--requests",
        "4",
        "--workers",
        "1",
        "--node-limit",
        "1",
    )
    assert code == EXIT_TIMEOUT
    assert "timeout" in out


def test_sweep_rejects_unknown_class(capsys):
    code, _, err = run(capsys, "sweep", "--classes", "huge", "--requests", "1")
    assert code == EXIT_USAGE
    assert "unknown class" in err


@pytest.mark.parametrize("spec", ["21", "19:21", "-1", "1,25"])
def test_sweep_rejects_counts_out_of_range(capsys, spec):
    code, out, err = run(
        capsys, "sweep", "--classes", "small", "--requests", spec,
        "--workers", "1",
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "outside 0..20" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_sweep_rejects_a_bad_model_option(capsys, value):
    code, out, err = run(
        capsys, "sweep", "--classes", "small", "--requests", "1",
        "--workers", "1", "--cloud-energy-per-bit", value,
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "energy" in err
    assert "Traceback" not in err and out == ""


def test_sweep_request_spellings(capsys):
    for spec, expect in (("3", [3]), ("2:4", [2, 3, 4]), ("1,3", [1, 3])):
        code, out, _ = run(
            capsys,
            "sweep",
            "--classes",
            "small",
            "--requests",
            spec,
            "--workers",
            "1",
            "--node-limit",
            "1",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert [r["request_count"] for r in doc["rows"]] == expect


def test_validate_reports_agreement(capsys):
    code, out, _ = run(capsys, "validate", "--instances", "4", "--seed", "11")
    assert code == EXIT_OK
    assert "checked 4 instances (seed 11): 4 agree" in out


def test_validate_rejects_oversized_search(capsys):
    code, _, err = run(
        capsys, "validate", "--instances", "1", "--max-nodes", "9", "--max-demands", "9"
    )
    assert code == EXIT_USAGE
    assert "exhaustive" in err


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "scenario", "--class", "small")[0] == EXIT_USAGE
    # Numeric flags out of range are refused before any work starts.
    path = str(write_scenario(tmp_path))
    capsys.readouterr()
    for argv in (
        ["solve", path, "--node-limit", "-3"],
        ["solve", path, "--node-limit", "0"],
        ["solve", path, "--time-limit", "0"],
        ["solve", path, "--time-limit", "-1.5"],
        ["solve", path, "--time-limit", "nan"],
        ["sweep", "--requests", "1", "--node-limit", "-3"],
        ["sweep", "--requests", "1", "--time-limit", "0"],
        ["sweep", "--requests", "1", "--workers", "-4"],
        ["sweep", "--requests", "1", "--workers", "0"],
        ["validate", "--max-nodes", "-3", "--max-demands", "-3"],
        ["validate", "--max-nodes", "0"],
        ["validate", "--max-demands", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "error: argument" in err and "must be > 0" in err, argv
        assert out == "", argv
