"""Tests of the benchmark itself: tiny-scale runs through the same code path."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from instances import mas_instance
from passes import ClosureScale, RepairMas, ServiceStream
from tracing import self_times, summarize
from repro import RepairEngine
from repro.workloads.programs_mas import mas_program

HERE = Path(__file__).resolve().parent

TINY = {
    "repair-mas": lambda workdir: RepairMas(3, workdir, scale=0.5),
    "closure-scale": lambda workdir: ClosureScale(
        3, workdir, mas_scale=1.0, tpch_scale=0.5,
    ),
    "service-stream": lambda workdir: ServiceStream(3, workdir, scale=0.5, batches=20),
}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """One untraced and one traced tiny run of every workload."""
    found = {}
    for name, make in TINY.items():
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            found[name, trace] = run.measure(make(workdir), 0, trace)
    return found


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(outcomes, name):
    for trace, declared in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        outcome = outcomes[name, trace]
        assert outcome["problems"] == []
        assert outcome["correct"] and outcome["failed"] == 0
        assert outcome["attempted"] > 0
        units = {key: value["unit"] for key, value in outcome["metrics"].items()}
        assert units == dict(declared)
    for _name, value in outcomes[name, False]["metrics"].items():
        assert value["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_metrics_are_named_with_units(outcomes, name):
    report = outcomes[name, False]["report"]
    expected = {
        "repair-mas": {"end_s", "stage_s", "step_s", "independent_s", "compare_s"},
        "closure-scale": {"end_s", "stage_s", "end_s.sqlite", "stage_s.sqlite"},
        "service-stream": {
            "load_s",
            "restart_s",
            "apply_p50_ms",
            "apply_p99_ms",
            "query_p50_us",
            "query_p99_us",
        },
    }[name]
    assert {metric for metric, _value, _unit in report["metrics"]} == expected
    assert all(unit and value > 0 for _metric, value, unit in report["metrics"])


def test_layer_split_matches_the_workloads(outcomes):
    mas = outcomes["repair-mas", True]["metrics"]
    assert mas["solver.solve_share"]["value"] > 0.5
    assert mas["core.semantics.traverse_share"]["value"] > 0.5
    assert mas["core.semantics.fig8_gap"]["value"] <= run.FIG8_TOLERANCE
    for name in ("closure-scale", "service-stream"):
        metrics = outcomes[name, True]["metrics"]
        for zero in (
            "solver.solve_s",
            "solver.unsat_scans",
            "core.semantics.traverse_s",
        ):
            assert metrics[zero]["value"] == 0
    stream = outcomes["service-stream", True]["metrics"]
    assert stream["datalog.incremental.restore_s"]["value"] > 0
    assert stream["storage.bytes_per_fact.stream"]["value"] > 0
    assert stream["datalog.engine.warm"]["value"] == 2


@pytest.mark.parametrize("name", sorted(TINY))
def test_span_tree_is_well_formed(outcomes, name):
    spans = outcomes[name, True]["report"]["trace"].spans
    assert spans
    for record in spans:
        _name, start, end, parent, _op = record
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert min(self_times(spans)) >= -1e-9


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["core.semantics.step", 0.0, 10.0, -1, 1],
        ["datalog.closure", 1.0, 3.0, 0, 1],
        ["storage.copy", 2.0, 4.0, 0, 1],
        ["storage.copy", 2.5, 3.5, 2, 1],
    ]
    assert self_times(spans) == [7.0, 2.0, 1.0, 1.0]
    totals = summarize(spans)
    assert totals["storage.copy"] == 2.0
    assert totals["self:core.semantics.step"] == 7.0
    assert totals["storage.self_s"] == 2.0


def test_relabel_gives_isomorphic_instances():
    sizes, values = [], []
    for seed in (1, 2):
        dataset = mas_instance(0.5, seed)
        result = RepairEngine(dataset.db, mas_program(dataset, "20")).repair("end")
        sizes.append(result.size)
        values.append({item.values for item in result.deleted})
    assert sizes[0] == sizes[1] > 0
    assert values[0] != values[1]


def test_digests_do_not_depend_on_pythonhashseed(tmp_path):
    script = (
        "import json, sys; from pathlib import Path; import run; "
        "from passes import RepairMas, Calls; "
        "w = RepairMas(5, Path(sys.argv[1]), scale=0.5); w.setup(None); "
        "p = w.run_pass(Calls(), None); w.check(p, Calls(), True); "
        "print(json.dumps(sorted(map(list, w.digests.items()))))"
    )
    seen = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            cwd=HERE,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        seen.add(done.stdout)
    assert len(seen) == 1


def test_docstring_carries_the_layer_table():
    doc = run.__doc__
    for name in ("repair-mas", "closure-scale", "service-stream"):
        assert name in doc
    for name, _unit in run.END_TO_END + run.PER_LAYER:
        if name.startswith("storage.sql_statements."):
            tail = "storage.sql_statements[.<tag>]"
        elif name.startswith("datalog.engine."):
            tail = "engine.<label>"
        elif name.startswith("core.semantics.fig8."):
            tail = "core.semantics.fig8.<sem>.<phase>_s"
        else:
            tail = name.split(".")[-1]
        assert tail in doc, name


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "repair-mas",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
