"""End-to-end repair benchmark, with a traced run that times each layer from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repair-mas --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones below; with ``--trace 1`` the run alternates untraced and
traced passes and reports the per-layer ones, including the tracing overhead.
The lines before it print each workload's own metrics by name and unit, the
input sizes, the resolved engine of every call and the result digests.  One
client in one process calls the library in a closed loop; every call uses
``engine="auto"``.  A pass repeats the same calls on the same inputs; passes
run until the next one would end after ``--seconds``.

Timings of calls and set-ups are *reference seconds*: measured seconds with
the host's speed divided out by a probe loop sampled throughout the run (see
:mod:`hostspeed`, which also gives the noise that made this necessary).
Per-layer span times are raw seconds.

Workloads (inputs from ``--seed``, see :mod:`instances`):

* ``repair-mas`` — in-memory MAS at scale 2 (2.7k tuples), cascade programs
  10, 18 and 20.  A pass makes one ``RepairEngine`` per program, calls
  ``repair()`` under end, stage, step and independent, then
  ``compare_results`` — what ``compare()`` does.  Solve and Traverse dominate.
* ``closure-scale`` — ``end`` and ``stage`` over MAS programs 16-20 at scale
  16 (21.8k tuples) and TPC-H T-1..T-6 at scale 8 (6.2k tuples), each on the
  in-memory backend and on a file-backed WAL ``SQLiteDatabase`` copy.  The
  fixpoint is the whole cost; provenance, solver and traverse do no work.
* ``service-stream`` — two ``RepairService``s, each on its own file-backed
  WAL SQLite copy (``synchronous=NORMAL``) of MAS scale 8 (10.9k tuples),
  serving cascade program 20 and DC-like program 13.  A pass loads both
  cold, then 500 write batches alternate between them: each deletes 3
  seeded-random base facts and re-inserts them, and each of the two writes is
  followed by 10 point queries (``in_repair``/``is_derivable``), half on the
  facts the batch touched.  Then both databases are closed and warm-restarted.

End-to-end metrics (every workload; medians over the run's passes):

=================  ====  ================================================
``setup_s``        s     generate the data and build the backends (median
                         of 3 set-ups per run)
``peak_rss_mb``    MB    peak resident set size of the process
``pass_s``         s     seconds of one pass's library calls
``slowest_call_s`` s     the slowest single library call of a pass
=================  ====  ================================================

Which call is slowest: mas/20 ``independent`` on ``repair-mas``, mas/20
``stage`` on SQLite on ``closure-scale``, the cold load of the mas/13 service
on ``service-stream``.

The workload metrics printed by name before the JSON line: ``repair-mas``
reports ``end_s``, ``stage_s``, ``step_s`` and ``independent_s`` (seconds per
pass of that semantics over the programs) and ``compare_s`` (their sum plus
``compare_results``); ``closure-scale`` reports ``end_s`` and ``stage_s``
(in memory) and ``end_s.sqlite`` and ``stage_s.sqlite``; ``service-stream``
reports ``load_s`` (cold construction of both services), ``restart_s`` (both
warm restarts), ``apply_p50_ms``/``apply_p99_ms`` over every ``apply`` call
and ``query_p50_us``/``query_p99_us`` over every point query.

Per-layer metrics (traced passes; medians per pass), each with the
end-to-end metric it should move and on which workload:

* ``workloads.generate_s`` → ``setup_s`` (all).
* ``storage.copy_s`` (``clone``/``stabilized_copy``/``from_database``) and
  ``storage.setup_copy_s`` → ``end_s``, ``stage_s`` and the ``*.sqlite``
  variants (closure-scale); ``setup_s``.
* ``storage.sql_statements[.<tag>]`` (statement hook) → ``end_s.sqlite`` and
  ``stage_s.sqlite`` (closure-scale); ``apply_p50_ms`` (service-stream).
* ``storage.bytes_per_fact.load`` and ``.stream`` (database plus WAL bytes
  per base fact) → ``restart_s`` (service-stream); also space.
* ``datalog.closure_s``, ``closure_calls``, ``rounds``, ``engine.<label>``
  (resolved engine per call), ``replans``, ``noop_replan_ratio``,
  ``variant_compiles``, ``shard_selects``, ``effective_shards`` → ``end_s``,
  ``stage_s`` and ``*.sqlite`` (closure-scale), ``load_s``
  (service-stream); predicted flat on repair-mas.
* ``provenance.boolean_s``, ``clauses``, ``variables`` → ``independent_s``
  (repair-mas).
* ``solver.solve_s``, ``simplify_s``, ``unsat_scans``, ``clauses_scanned``,
  ``components``, ``greedy_components``, ``largest_component``,
  ``bnb_nodes``, ``optimal_ratio``, ``solve_share`` → ``independent_s``
  (repair-mas); zero on the other two workloads.
* ``core.semantics.traverse_s``, ``traverse_share``, ``hash_calls``,
  ``picks``, ``pruned`` → ``step_s`` (repair-mas); zero on the other two.
* ``core.semantics.fig8.<sem>.<phase>_s``: the ``RepairResult.timer``
  phases, beside the outside spans.
* ``datalog.incremental.dred_s``, ``insert_s``, ``flush_s``,
  ``counting_ratio``, ``rederive_ratio`` → ``apply_p50_ms`` and
  ``apply_p99_ms`` (service-stream); ``restore_s`` → ``restart_s``.
* ``service.apply_self_s``, ``query_s`` → ``apply_p50_ms``,
  ``query_p50_us`` and ``query_p99_us`` (service-stream).
* ``<layer>.self_s``: span time minus the part child spans cover, summed
  over the layer; ``trace.overhead_s`` and ``overhead_ratio``: traced minus
  untraced ``pass_s``; ``trace.spans``: spans recorded.

``core.semantics.traverse_s`` is the self time of ``step_semantics`` (its
closure and copy spans taken out).  The Fig-8 check requires it to agree with
the ``traverse`` plus ``process_prov`` phases of ``RepairResult.timer``, and
``solver.solve_s`` with the ``solve`` phase, within :data:`FIG8_TOLERANCE`;
``core.semantics.fig8_gap`` reports the larger relative disagreement.

Output checks, outside the timed calls; each failure is a failed operation
and makes the command exit 1: deleted-set digests equal across passes (and,
in the tests, across ``PYTHONHASHSEED``); ``end``/``stage`` results equal on
both backends; every result passes ``verify_repair``; the ``compare_results``
containments match :data:`passes.RECORDED_CONTAINMENT`; after the stream each
service's delta extent equals a from-scratch ``run_closure`` of its base
instance; each warm restart reports ``load_engine == "warm"`` and holds the
live service's assignments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
sys.path.insert(0, str(SOURCES))

from hostspeed import HostSpeed  # noqa: E402
from passes import WORKLOADS, Calls, Pass  # noqa: E402
from tracing import SQL_TAGS, Tracer, instrument, summarize  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Largest relative disagreement allowed between an outside span and the
#: matching ``RepairResult.timer`` phase, beyond :data:`FIG8_SLACK_S`.
FIG8_TOLERANCE = 0.10
FIG8_SLACK_S = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("slowest_call_s", "s"),
)

FIG8_PHASES = (
    "end.eval",
    "stage.eval",
    "step.eval",
    "step.process_prov",
    "step.traverse",
    "independent.eval",
    "independent.process_prov",
    "independent.solve",
)

ENGINES = ("sharded", "semi-naive", "naive", "warm")

PER_LAYER = (
    (("workloads.generate_s", "s"), ("workloads.self_s", "s"))
    + (
        ("storage.copy_s", "s"),
        ("storage.setup_copy_s", "s"),
        ("storage.sql_statements", "count"),
    )
    + tuple(
        (f"storage.sql_statements.{tag}", "count") for tag in SQL_TAGS + ("untagged",)
    )
    + (
        ("storage.bytes_per_fact.load", "B/fact"),
        ("storage.bytes_per_fact.stream", "B/fact"),
        ("storage.self_s", "s"),
        ("datalog.closure_s", "s"),
        ("datalog.closure_calls", "count"),
        ("datalog.rounds", "count"),
    )
    + tuple((f"datalog.engine.{label}", "count") for label in ENGINES)
    + (
        ("datalog.replans", "count"),
        ("datalog.noop_replan_ratio", "ratio"),
        ("datalog.variant_compiles", "count"),
        ("datalog.shard_selects", "count"),
        ("datalog.effective_shards", "count"),
        ("datalog.self_s", "s"),
        ("provenance.boolean_s", "s"),
        ("provenance.clauses", "count"),
        ("provenance.variables", "count"),
        ("provenance.self_s", "s"),
        ("solver.solve_s", "s"),
        ("solver.simplify_s", "s"),
        ("solver.unsat_scans", "count"),
        ("solver.clauses_scanned", "count"),
        ("solver.components", "count"),
        ("solver.greedy_components", "count"),
        ("solver.largest_component", "count"),
        ("solver.bnb_nodes", "count"),
        ("solver.optimal_ratio", "ratio"),
        ("solver.solve_share", "ratio"),
        ("solver.self_s", "s"),
        ("core.semantics.traverse_s", "s"),
        ("core.semantics.traverse_share", "ratio"),
        ("core.semantics.hash_calls", "count"),
        ("core.semantics.picks", "count"),
        ("core.semantics.pruned", "count"),
        ("core.semantics.self_s", "s"),
    )
    + tuple((f"core.semantics.fig8.{phase}_s", "s") for phase in FIG8_PHASES)
    + (
        ("core.semantics.fig8_gap", "ratio"),
        ("datalog.incremental.dred_s", "s"),
        ("datalog.incremental.insert_s", "s"),
        ("datalog.incremental.flush_s", "s"),
        ("datalog.incremental.restore_s", "s"),
        ("datalog.incremental.counting_ratio", "ratio"),
        ("datalog.incremental.rederive_ratio", "ratio"),
        ("datalog.incremental.self_s", "s"),
        ("service.apply_self_s", "s"),
        ("service.query_s", "s"),
        ("service.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
    )
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _pass_layers(current: Pass, calls: Calls) -> Dict[str, float]:
    """The per-pass layer metrics of one traced pass; runs the Fig-8 check."""
    spans, counters, layer = current.spans, current.counters, current.layer
    values: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = spans.get(name, 0.0)
    for name in ("storage.sql_statements",) + tuple(
        f"storage.sql_statements.{tag}" for tag in SQL_TAGS + ("untagged",)
    ):
        values[name] = counters[name]
    facts = layer["storage.base_facts"]
    values["storage.copy_s"] = spans.get("storage.copy", 0.0)
    values["storage.bytes_per_fact.load"] = _ratio(
        layer["storage.bytes_after_load"], facts,
    )
    values["storage.bytes_per_fact.stream"] = _ratio(
        layer["storage.bytes_after_stream"], facts,
    )
    values["datalog.closure_s"] = spans.get("datalog.closure", 0.0)
    for name in (
        "datalog.closure_calls",
        "datalog.rounds",
        "solver.unsat_scans",
        "solver.clauses_scanned",
        "solver.largest_component",
        "core.semantics.hash_calls",
    ):
        values[name] = counters[name]
    for label in ENGINES:
        values[f"datalog.engine.{label}"] = current.engines[label]
    for field in ("replans", "variant_compiles", "shard_selects", "effective_shards"):
        values[f"datalog.{field}"] = layer["stats." + field]
    values["datalog.noop_replan_ratio"] = _ratio(
        layer["stats.noop_replans"], layer["stats.replans"],
    )
    values["provenance.boolean_s"] = spans.get("provenance.boolean", 0.0)
    for name in (
        "provenance.clauses",
        "provenance.variables",
        "solver.components",
        "solver.greedy_components",
        "solver.bnb_nodes",
        "core.semantics.picks",
        "core.semantics.pruned",
    ):
        values[name] = layer[name]
    solve = values["solver.solve_s"] = spans.get("solver.solve", 0.0)
    values["solver.simplify_s"] = spans.get("solver.simplify", 0.0)
    values["solver.optimal_ratio"] = _ratio(
        layer["solver.optimal"], layer["solver.calls"],
    )
    values["solver.solve_share"] = _ratio(solve, current.by_kind["independent"])
    traverse = values["core.semantics.traverse_s"] = spans.get(
        "self:core.semantics.step", 0.0,
    )
    values["core.semantics.traverse_share"] = _ratio(traverse, current.by_kind["step"])
    for phase in FIG8_PHASES:
        name = f"core.semantics.fig8.{phase}_s"
        values[name] = layer[name]
    gap = 0.0
    for label, outside, inside in (
        (
            "traverse",
            traverse,
            layer["core.semantics.fig8.step.traverse_s"]
            + layer["core.semantics.fig8.step.process_prov_s"],
        ),
        ("solve", solve, layer["core.semantics.fig8.independent.solve_s"]),
    ):
        if abs(outside - inside) > FIG8_TOLERANCE * inside + FIG8_SLACK_S:
            calls.fail(
                f"Fig-8 check: outside {label} {outside:.4f} s vs "
                f"RepairResult.timer {inside:.4f} s",
            )
        gap = max(gap, _ratio(abs(outside - inside), inside))
    values["core.semantics.fig8_gap"] = gap
    for name in ("dred", "insert", "flush", "restore"):
        values[f"datalog.incremental.{name}_s"] = spans.get(
            f"datalog.incremental.{name}", 0.0,
        )
    counted = layer["stats.counted_deletes"]
    values["datalog.incremental.counting_ratio"] = _ratio(
        counted, counted + layer["stats.dred_fallbacks"],
    )
    values["datalog.incremental.rederive_ratio"] = _ratio(
        layer["stats.rederived"], layer["stats.overdeleted"],
    )
    values["service.apply_self_s"] = spans.get("self:service.apply", 0.0)
    values["service.query_s"] = spans.get("service.query", 0.0)
    return values


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set ``workload`` up, run passes for ``seconds``, check and report them.

    Returns ``{"correct", "attempted", "failed", "metrics", "report"}``;
    ``report`` holds the workload metrics, sizes, engines and digests.
    """
    tracer = Tracer() if trace else None
    calls = Calls()
    speed = HostSpeed()
    setups: List[tuple] = []
    setup_spans: List[dict] = []
    untraced: List[Pass] = []
    traced: List[Pass] = []
    with speed.sampling():
        for index in range(SETUPS):
            if index:
                workload.close()
            mark = len(tracer.spans) if tracer else 0
            with instrument(tracer) if tracer else nullcontext():
                start = perf_counter()
                workload.setup(tracer)
                setups.append((start, perf_counter()))
            if tracer:
                setup_spans.append(summarize(tracer.spans, mark))
        _run_passes(workload, calls, tracer, seconds, untraced, traced)
    for current in untraced + traced:
        current.timed = [
            (kind, speed.normalize(start, end)) for kind, start, end in current.log
        ]

    def pass_median(passes: List[Pass], of=sum) -> float:
        return statistics.median(of(s for _kind, s in p.timed) for p in passes)

    passes = traced if trace else untraced
    report = {
        "workload": workload.name,
        "passes": len(passes),
        "sizes": dict(workload.sizes(), closure_facts=passes[0].layer["closure_facts"]),
        "engines": dict(sum((p.engines for p in passes), Counter())),
        "digests": getattr(workload, "digests", {}),
        "metrics": workload.end_to_end(untraced),
    }
    if trace:
        per_pass = [_pass_layers(current, calls) for current in traced]
        metrics = {
            name: statistics.median(values[name] for values in per_pass)
            for name in per_pass[0]
        }
        metrics["workloads.generate_s"] = statistics.median(
            s.get("workloads.generate", 0.0) for s in setup_spans
        )
        metrics["workloads.self_s"] = statistics.median(
            s.get("workloads.self_s", 0.0) for s in setup_spans
        )
        metrics["storage.setup_copy_s"] = statistics.median(
            s.get("storage.copy", 0.0) for s in setup_spans
        )
        plain = pass_median(untraced)
        overhead = pass_median(traced) - plain
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = _ratio(overhead, plain)
        metrics["trace.spans"] = len(tracer.spans)
        units = dict(PER_LAYER)
        report["trace"] = tracer
    else:
        metrics = {
            "setup_s": statistics.median(speed.normalize(*span) for span in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": pass_median(passes),
            "slowest_call_s": pass_median(passes, max),
        }
        units = dict(END_TO_END)
    return {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
        "report": report,
        "problems": calls.problems,
    }


def _run_passes(workload, calls, tracer, seconds, untraced, traced) -> None:
    """Run and check passes until the next one would end after ``seconds``."""
    deadline = perf_counter() + seconds
    try:
        while True:
            started = perf_counter()
            # A traced run alternates untraced and traced passes, so the
            # difference between the two is the tracing overhead.
            use = tracer if tracer and len(untraced) > len(traced) else None
            mark = len(tracer.spans) if tracer else 0
            if use:
                use.counters = Counter()
            with instrument(use) if use else nullcontext():
                current = workload.run_pass(calls, use)
            if use:
                current.spans = summarize(tracer.spans, mark)
                current.counters = use.counters
            workload.check(current, calls, first=not (untraced or traced))
            # Outputs hold repaired databases; keeping them would make peak
            # memory grow with the number of passes.
            current.outputs.clear()
            (traced if use else untraced).append(current)
            # Stop before a pass that would end past the deadline (every
            # pass repeats the same calls, so the last one predicts the next).
            if perf_counter() + (perf_counter() - started) > deadline and (
                traced or not tracer
            ):
                break
    finally:
        workload.close()


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "repro").is_dir():
        print(f"perfbench: no library sources under {SOURCES}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    outcome = measure(workload, args.seconds, bool(args.trace))
    report = outcome.pop("report")
    for problem in outcome.pop("problems"):
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        f"# {report['workload']} seed={args.seed} cpus={os.cpu_count()} "
        f"python={platform.python_version()} passes={report['passes']} "
        f"trace={args.trace}",
    )
    print(f"# sizes {json.dumps(report['sizes'])}")
    print(f"# engines {json.dumps(report['engines'])}")
    for key, value in sorted(report["digests"].items()):
        print(f"# digest {'/'.join(key)} {value}")
    for name, value, unit in report["metrics"]:
        print(f"{report['workload']} {name} {value:.6g} {unit}")
    if "trace" in report:
        trace_path = workdir / f"trace-{args.workload}-seed{args.seed}.json"
        report["trace"].dump(str(trace_path))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    for name, metric in outcome["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
