"""Sweep harness: grids, report emission, and reproducibility."""

import csv
import dataclasses
import io
import json
import math

import pytest

from vecopt import VERSION, sweep
from vecopt.scenario import build_reference_scenario
from vecopt.sweep import (
    CSV_COLUMNS,
    DEFAULT_NODE_LIMIT,
    SweepReport,
    SweepRow,
    compute_saving,
    emit_report,
    run_sweep,
    write_plot_files,
)
from vecopt.types import ModelOptions, ScenarioError

TINY = dict(classes=("small",), counts=(1, 2))


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_compute_saving():
    assert compute_saving(25.0, 100.0) == pytest.approx(75.0)
    assert compute_saving(100.0, 100.0) == 0.0
    assert compute_saving(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        compute_saving(10.0, 0.0)


def test_csv_columns_mirror_row_fields():
    assert CSV_COLUMNS == tuple(
        f.name for f in dataclasses.fields(SweepRow)
    )


def test_small_grid_values():
    report = run_sweep(**TINY)
    assert [(r.demand_class, r.request_count) for r in report.rows] == [
        ("small", 1),
        ("small", 2),
    ]
    one, two = report.rows
    assert one.status == two.status == "optimal"
    assert one.total_power_w == pytest.approx(15.348363636363636, rel=1e-9)
    assert one.baseline_power_w == pytest.approx(243.21728, rel=1e-9)
    assert one.saving_pct == pytest.approx(
        compute_saving(one.total_power_w, one.baseline_power_w)
    )
    assert one.cloud_mips == 0.0
    assert one.cloud_power_w == 0.0
    assert one.vehicle_power_w == pytest.approx(one.total_power_w)
    assert two.total_power_w > one.total_power_w
    assert two.saving_pct < one.saving_pct
    for row in report.rows:
        assert row.objective_w == pytest.approx(row.total_power_w, rel=1e-6)
        assert row.bb_nodes >= 1
        assert row.lp_iterations > 0
        assert row.solve_ms > 0
    assert report.version == VERSION


def test_sweep_continues_past_budget_flags():
    # one node, the root, does not prove either count, so every row is
    # flagged, yet each still carries its incumbent and the grid finishes
    report = run_sweep(classes=("small",), counts=(2, 4), node_limit=1)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.status == "timeout"
        assert row.total_power_w > 0
        assert row.saving_pct >= 0


def test_csv_shape_and_determinism():
    a = emit_report(run_sweep(**TINY))
    b = emit_report(run_sweep(**TINY))
    assert a == b
    rows = parse_csv(a)
    assert len(rows) == 2
    assert list(rows[0]) == list(CSV_COLUMNS)
    # measured times must not leak into emitted documents
    assert {r["solve_ms"] for r in rows} == {"0"}
    assert rows[0]["demand_class"] == "small"
    assert float(rows[0]["total_power_w"]) == pytest.approx(15.3484, abs=1e-4)


def test_worker_count_never_changes_rows():
    serial = run_sweep(**TINY, workers=1)
    fanned = run_sweep(**TINY, workers=2)
    assert emit_report(serial) == emit_report(fanned)
    assert emit_report(serial, "json") == emit_report(fanned, "json")


def test_json_document_shape():
    report = run_sweep(**TINY)
    doc = json.loads(emit_report(report, "json"))
    assert doc["version"] == VERSION
    assert doc["options"]["cloud_provisioning"] == "single_pool"
    assert doc["options"]["instructions_per_bit"] == 2000.0
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    for column in CSV_COLUMNS:
        assert column in row
    assert row["solve_ms"] == 0


def test_unknown_format_rejected():
    report = run_sweep(classes=("small",), counts=(1,))
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_default_budget_is_machine_independent():
    # the budget is counted in explored nodes, not seconds
    assert DEFAULT_NODE_LIMIT >= 1
    a = run_sweep(classes=("small",), counts=(4,))
    b = run_sweep(classes=("small",), counts=(4,))
    assert a.rows[0].bb_nodes == b.rows[0].bb_nodes
    assert a.rows[0].total_power_w == b.rows[0].total_power_w
    assert a.rows[0].status == b.rows[0].status


def test_class_order_is_canonical():
    report = run_sweep(classes=("medium", "small"), counts=(1,))
    assert [r.demand_class for r in report.rows] == ["small", "medium"]


def test_unknown_class_is_rejected_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point before rejecting the class")

    monkeypatch.setattr(sweep, "solve_scenario", no_solve)
    with pytest.raises(ScenarioError) as raised:
        run_sweep(classes=("large", "huge"), counts=(1, 2))
    with pytest.raises(ScenarioError) as built:
        build_reference_scenario("huge", 1)
    assert str(raised.value) == str(built.value)


def test_options_flow_into_rows():
    options = ModelOptions(cloud_path_energy_per_bit=1e-6)
    cheap = run_sweep(classes=("small",), counts=(1,)).rows[0]
    dear = run_sweep(classes=("small",), counts=(1,), options=options).rows[0]
    # a dearer cloud path inflates the baseline, never the local optimum
    assert dear.baseline_power_w > cheap.baseline_power_w
    assert dear.total_power_w == pytest.approx(cheap.total_power_w)
    assert dear.saving_pct > cheap.saving_pct


def test_plot_files(tmp_path):
    report = run_sweep(**TINY)
    files = write_plot_files(report, tmp_path / "sweep")
    assert files
    for path in files:
        assert path.exists()
        assert path.stat().st_size > 0


# The exact bytes emitted for a hand-built report mixing float, int and
# str values: empty tier sums arrive as the int 0, and nan, -0.0 and
# very large or small floats each have their own spelling.
GOLDEN_REPORT = SweepReport(
    rows=(
        SweepRow(
            "small", 3, 15.348363636363636, 15.348363636363636, 0.0, 0, 0,
            243.21728, 93.68938491672583, 7, 1234, 12.5, "optimal",
            15.348363636363636,
        ),
        SweepRow(
            "medium", 10, 1234567.891, 1.5e-7, 0.1 + 0.2, -0.0, 2880.0, 1e21,
            -12.345678, 150, 98765, 3.0, "timeout", 1234567.8910001,
        ),
        SweepRow(
            "large", 1, math.nan, math.nan, math.nan, math.nan, math.nan,
            401.0, math.nan, 1, 0, 0.25, "infeasible", math.nan,
        ),
    ),
    options=ModelOptions(1500.0, 2.5e-7, "per_server", 8000.0, "shared"),
)

GOLDEN_CSV = """\
demand_class,request_count,total_power_w,vehicle_power_w,edge_power_w,cloud_power_w,cloud_mips,baseline_power_w,saving_pct,bb_nodes,lp_iterations,solve_ms,status,objective_w
small,3,15.3484,15.3484,0,0,0,243.217,93.6894,7,1234,0,optimal,15.3484
medium,10,1.23457e+06,1.5e-07,0.3,-0,2880,1e+21,-12.3457,150,98765,0,timeout,1.23457e+06
large,1,nan,nan,nan,nan,nan,401,nan,1,0,0,infeasible,nan
"""

GOLDEN_JSON = """\
{
  "version": "0.1.0",
  "options": {
    "instructions_per_bit": 1500.0,
    "cloud_path_energy_per_bit": 2.5e-07,
    "cloud_provisioning": "per_server",
    "cloud_server_capacity": 8000.0,
    "dsrc_medium": "shared"
  },
  "rows": [
    {
      "demand_class": "small",
      "request_count": 3,
      "total_power_w": 15.348363636363636,
      "vehicle_power_w": 15.348363636363636,
      "edge_power_w": 0.0,
      "cloud_power_w": 0,
      "cloud_mips": 0,
      "baseline_power_w": 243.21728,
      "saving_pct": 93.68938491672583,
      "bb_nodes": 7,
      "lp_iterations": 1234,
      "solve_ms": 0.0,
      "status": "optimal",
      "objective_w": 15.348363636363636
    },
    {
      "demand_class": "medium",
      "request_count": 10,
      "total_power_w": 1234567.891,
      "vehicle_power_w": 1.5e-07,
      "edge_power_w": 0.30000000000000004,
      "cloud_power_w": -0.0,
      "cloud_mips": 2880.0,
      "baseline_power_w": 1e+21,
      "saving_pct": -12.345678,
      "bb_nodes": 150,
      "lp_iterations": 98765,
      "solve_ms": 0.0,
      "status": "timeout",
      "objective_w": 1234567.8910001
    },
    {
      "demand_class": "large",
      "request_count": 1,
      "total_power_w": NaN,
      "vehicle_power_w": NaN,
      "edge_power_w": NaN,
      "cloud_power_w": NaN,
      "cloud_mips": NaN,
      "baseline_power_w": 401.0,
      "saving_pct": NaN,
      "bb_nodes": 1,
      "lp_iterations": 0,
      "solve_ms": 0.0,
      "status": "infeasible",
      "objective_w": NaN
    }
  ]
}
"""


def test_emitted_bytes_match_golden_text():
    assert emit_report(GOLDEN_REPORT) == GOLDEN_CSV
    assert emit_report(GOLDEN_REPORT, "json") == GOLDEN_JSON
