"""The three workloads: set-up, one timed pass of library calls, output checks.

Each workload object builds its inputs in :meth:`setup`, runs one pass of
public library calls in :meth:`run_pass` (every call timed and counted by
:class:`Calls`), and checks the outputs in :meth:`check`, outside the timed
calls.  A failed call or a failed check counts one failed operation.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List

from repro import (
    RepairEngine,
    RepairService,
    SQLiteDatabase,
    compare_results,
    verify_repair,
)
from repro.datalog.evaluation import run_closure
from repro.storage.database import Database
from repro.storage.facts import Fact
from repro.utils.rng import make_rng
from repro.workloads.programs_mas import mas_programs
from repro.workloads.programs_tpch import tpch_programs

from instances import mas_instance, tpch_instance
from tracing import Tracer, operation, span

SEMANTICS = ("end", "stage", "step", "independent")

#: Containment relations of :func:`compare_results` per (scale, program), as
#: (Step = Stage, Ind ⊆ Stage, Ind ⊆ Step).  Every seed gives an isomorphic
#: instance (see :mod:`instances`), so they do not depend on the seed.
RECORDED_CONTAINMENT = {
    (2.0, "10"): (True, True, True),
    (2.0, "18"): (True, True, True),
    (2.0, "20"): (True, True, True),
    (0.5, "10"): (True, True, True),
    (0.5, "18"): (True, True, True),
    (0.5, "20"): (True, True, True),
}


def digest(items) -> str:
    """A stable digest of a set of facts (independent of ``PYTHONHASHSEED``)."""
    text = "\n".join(repr(item.sort_key()) for item in sorted(items, key=Fact.sort_key))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1-99) of ``values``, as ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Calls:
    """Operations attempted and failed over a run, and what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


class Pass:
    """One pass of a workload: the interval of every library call, in order.

    ``log`` holds ``(kind, start, end)``; ``timed`` holds ``(kind, seconds)``
    once the run has turned the intervals into reference seconds.
    """

    def __init__(self, calls: Calls, tracer: Tracer | None) -> None:
        self.calls = calls
        self.tracer = tracer
        self.log: List[tuple] = []
        self.timed: List[tuple] = []
        self.by_kind: Dict[str, float] = defaultdict(float)
        self.engines: Counter = Counter()
        self.layer: Dict[str, float] = Counter()
        self.outputs: Dict[Any, Any] = {}

    def run(self, kind: str, function: Callable, *args, **kwargs):
        """Call ``function``; time it under ``kind``.  None when it raised."""
        self.calls.attempted += 1
        with operation(self.tracer, kind):
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception:
                self.calls.fail(f"{kind} raised:\n{traceback.format_exc()}")
                return None
            end = perf_counter()
        self.log.append((kind, start, end))
        self.by_kind[kind] += end - start
        return result

    def kind_seconds(self, *kinds: str) -> float:
        """Reference seconds of this pass's calls of the given kinds."""
        return sum(seconds for kind, seconds in self.timed if kind in kinds)

    def read_stats(self, stats) -> None:
        """Add one :class:`~repro.datalog.context.QueryStats` to the pass."""
        for field in (
            "replans",
            "noop_replans",
            "variant_compiles",
            "shard_selects",
            "effective_shards",
            "counted_deletes",
            "dred_fallbacks",
            "overdeleted",
            "rederived",
        ):
            self.layer["stats." + field] += getattr(stats, field)

    def read_result(self, result) -> None:
        """Add the public timer and metadata of one ``RepairResult``."""
        name = result.semantics.value
        for phase, seconds in result.timer.phases.items():
            self.layer[f"core.semantics.fig8.{name}.{phase}_s"] += seconds
        meta = result.metadata
        if name == "end":
            self.layer["closure_facts"] += meta["derived_delta_tuples"]
        if "engine" in meta:
            self.engines[meta["engine"]] += 1
        if name == "step":
            self.layer["core.semantics.picks"] += result.size
            self.layer["core.semantics.pruned"] += meta.get("pruned_delta_tuples", 0)
        if name == "independent":
            self.layer["provenance.clauses"] += meta["clauses"]
            self.layer["provenance.variables"] += meta["provenance_variables"]
            self.layer["solver.components"] += meta["solver_components"]
            self.layer["solver.greedy_components"] += meta["solver_greedy_components"]
            self.layer["solver.bnb_nodes"] += meta["solver_nodes"]
            self.layer["solver.calls"] += 1
            self.layer["solver.optimal"] += bool(meta["optimal"])


def _remove_database(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        candidate = Path(f"{path}{suffix}")
        if candidate.exists():
            candidate.unlink()


def _database_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(f"{path}{suffix}")
        for suffix in ("", "-wal")
        if os.path.exists(f"{path}{suffix}")
    )


class RepairMas:
    """``compare()`` passes over in-memory MAS: Solve and Traverse dominate."""

    name = "repair-mas"
    program_ids = ("10", "18", "20")

    def __init__(self, seed: int, workdir: Path, scale: float = 2.0) -> None:
        self.seed = seed
        self.scale = scale
        self.digests: Dict[tuple, str] = {}

    def setup(self, tracer: Tracer | None) -> None:
        with span(tracer, "workloads.generate"):
            self.dataset = mas_instance(self.scale, self.seed)
        self.programs = mas_programs(self.dataset, self.program_ids)

    def run_pass(self, calls: Calls, tracer: Tracer | None) -> Pass:
        current = Pass(calls, tracer)
        for pid, program in self.programs.items():
            engine = current.run("engine", RepairEngine, self.dataset.db, program)
            if engine is None:
                continue
            results = {sem: current.run(sem, engine.repair, sem) for sem in SEMANTICS}
            report = None
            if all(results.values()):
                report = current.run(
                    "compare_results", compare_results, results, name=pid,
                )
                for result in results.values():
                    current.read_result(result)
            current.read_stats(engine.context.stats)
            current.outputs[pid] = (program, results, report)
        return current

    def check(self, current: Pass, calls: Calls, first: bool) -> None:
        for pid, (program, results, report) in current.outputs.items():
            for sem, result in results.items():
                if result is None:
                    continue
                key = (pid, sem)
                found = digest(result.deleted)
                if self.digests.setdefault(key, found) != found:
                    calls.fail(f"{pid}/{sem}: deleted set changed between passes")
                if first and not verify_repair(self.dataset.db, program, result):
                    calls.fail(f"{pid}/{sem}: not a stabilizing set")
            if report is None:
                continue
            recorded = RECORDED_CONTAINMENT.get((self.scale, pid))
            if not report.invariants_hold():
                calls.fail(f"{pid}: Proposition 3.20 containments fail")
            if recorded is not None and report.table3_row()[1:] != recorded:
                calls.fail(
                    f"{pid}: containment {report.table3_row()[1:]} "
                    f"!= recorded {recorded}",
                )

    def end_to_end(self, passes: List[Pass]) -> List[tuple]:
        def per_pass(*kinds):
            return statistics.median(p.kind_seconds(*kinds) for p in passes)

        return [
            ("end_s", per_pass("end"), "s"),
            ("stage_s", per_pass("stage"), "s"),
            ("step_s", per_pass("step"), "s"),
            ("independent_s", per_pass("independent"), "s"),
            ("compare_s", per_pass(*SEMANTICS, "compare_results"), "s"),
        ]

    def sizes(self) -> Dict[str, Any]:
        return {
            "tuples": self.dataset.total_tuples,
            "programs": [f"mas/{pid}" for pid in self.program_ids],
        }

    def close(self) -> None:
        pass


class ClosureScale:
    """``end`` and ``stage`` over large instances, in memory and file-backed SQLite."""

    name = "closure-scale"
    mas_ids = ("16", "17", "18", "19", "20")

    def __init__(
        self,
        seed: int,
        workdir: Path,
        mas_scale: float = 16.0,
        tpch_scale: float = 8.0,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.mas_scale = mas_scale
        self.tpch_scale = tpch_scale
        self.digests: Dict[tuple, str] = {}
        self.backends: List[SQLiteDatabase] = []

    def setup(self, tracer: Tracer | None) -> None:
        with span(tracer, "workloads.generate"):
            mas = mas_instance(self.mas_scale, self.seed)
            tpch = tpch_instance(self.tpch_scale, self.seed)
        self.tuples = mas.total_tuples + tpch.total_tuples
        self.cases = []
        for label, dataset, programs in (
            ("mas", mas, mas_programs(mas, self.mas_ids)),
            ("tpch", tpch, tpch_programs(tpch)),
        ):
            path = self.workdir / f"closure-{label}.db"
            _remove_database(path)
            sqlite = SQLiteDatabase.from_database(dataset.db, path=str(path))
            self.backends.append(sqlite)
            for pid, program in programs.items():
                self.cases.append((f"{label}/{pid}", program, dataset.db, sqlite))

    def run_pass(self, calls: Calls, tracer: Tracer | None) -> Pass:
        current = Pass(calls, tracer)
        for name, program, memory, sqlite in self.cases:
            for suffix, db in (("", memory), (".sqlite", sqlite)):
                engine = current.run("engine" + suffix, RepairEngine, db, program)
                if engine is None:
                    continue
                for sem in ("end", "stage"):
                    result = current.run(sem + suffix, engine.repair, sem)
                    if result is not None:
                        current.read_result(result)
                    current.outputs[(name, sem, suffix)] = (program, db, result)
                current.read_stats(engine.context.stats)
        return current

    def check(self, current: Pass, calls: Calls, first: bool) -> None:
        for (name, sem, suffix), (program, db, result) in current.outputs.items():
            if result is None:
                continue
            found = digest(result.deleted)
            if self.digests.setdefault((name, sem + suffix), found) != found:
                calls.fail(f"{name}/{sem}{suffix}: deleted set changed between passes")
            if not suffix:
                if first and not verify_repair(db, program, result):
                    calls.fail(f"{name}/{sem}: not a stabilizing set")
                continue
            memory = current.outputs[(name, sem, "")][2]
            if memory is None:
                continue
            if result.deleted != memory.deleted:
                calls.fail(f"{name}/{sem}: SQLite and in-memory results differ")
            elif first and not result.repaired.same_state_as(memory.repaired):
                calls.fail(f"{name}/{sem}: SQLite repaired state differs")

    def end_to_end(self, passes: List[Pass]) -> List[tuple]:
        return [
            (name, statistics.median(p.kind_seconds(kind) for p in passes), "s")
            for kind, name in (
                ("end", "end_s"),
                ("stage", "stage_s"),
                ("end.sqlite", "end_s.sqlite"),
                ("stage.sqlite", "stage_s.sqlite"),
            )
        ]

    def sizes(self) -> Dict[str, Any]:
        return {
            "tuples": self.tuples,
            "programs": [name for name, *_rest in self.cases],
        }

    def close(self) -> None:
        for db in self.backends:
            db.close()
        self.backends.clear()


class ServiceStream:
    """Two ``RepairService``s on file-backed WAL SQLite under a write stream."""

    name = "service-stream"
    program_ids = ("20", "13")

    def __init__(
        self, seed: int, workdir: Path, scale: float = 8.0, batches: int = 500,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.batches = batches
        self.base = workdir / "service-base.db"
        self.oracle_checked: set = set()

    def setup(self, tracer: Tracer | None) -> None:
        with span(tracer, "workloads.generate"):
            self.dataset = mas_instance(self.scale, self.seed)
        self.programs = mas_programs(self.dataset, self.program_ids)
        self.facts = sorted(self.dataset.db.all_active(), key=Fact.sort_key)
        _remove_database(self.base)
        # Closing the only connection checkpoints the WAL into the file, so a
        # plain file copy gives each pass a fresh cold database.
        SQLiteDatabase.from_database(self.dataset.db, path=str(self.base)).close()

    def _queries(self, current: Pass, service, touched: List[Fact], rng) -> None:
        targets = [touched[i % len(touched)] for i in range(5)]
        targets += rng.sample(self.facts, 5)
        for index, item in enumerate(targets):
            query = service.in_repair if index % 2 == 0 else service.is_derivable
            current.run("query", query, item)

    def run_pass(self, calls: Calls, tracer: Tracer | None) -> Pass:
        current = Pass(calls, tracer)
        services, paths = {}, {}
        for pid in self.program_ids:
            path = paths[pid] = self.workdir / f"service-{pid}.db"
            _remove_database(path)
            shutil.copyfile(self.base, path)
            db = SQLiteDatabase(self.dataset.schema, path=str(path))
            if tracer is not None:
                db.add_statement_hook(tracer.sql_hook)
            service = current.run("load", RepairService, db, self.programs[pid])
            if service is None:
                db.close()
                continue
            services[pid] = service
            current.engines[service.load_engine] += 1
            current.layer["closure_facts"] += db.count_delta()
        current.layer["storage.bytes_after_load"] = sum(
            map(_database_bytes, paths.values()),
        )
        live = list(services.items())
        rng = make_rng(self.seed, "perfbench-stream")
        for batch in range(self.batches if live else 0):
            service = live[batch % len(live)][1]
            touched = rng.sample(self.facts, 3)
            current.run("apply", service.apply, deletes=touched)
            self._queries(current, service, touched, rng)
            current.run("apply", service.apply, inserts=touched)
            self._queries(current, service, touched, rng)
        current.layer["storage.bytes_after_stream"] = sum(
            map(_database_bytes, paths.values()),
        )
        current.layer["storage.base_facts"] = len(paths) * len(self.facts)
        for pid, service in services.items():
            current.read_stats(service.stats)
            signatures = {item.signature() for item in service.assignments()}
            # The oracle closure is slow; run it on the first pass only.
            closure = None if pid in self.oracle_checked else self._closures(service)
            self.oracle_checked.add(pid)
            service.db.close()
            db = SQLiteDatabase(self.dataset.schema, path=str(paths[pid]))
            restarted = current.run("restart", RepairService, db, self.programs[pid])
            current.outputs[pid] = (signatures, closure, restarted)
            if restarted is not None:
                current.engines[restarted.load_engine] += 1
        return current

    def _closures(self, service) -> tuple:
        """The service's delta extent, and a from-scratch closure of its base."""
        fresh = Database.from_facts(self.dataset.schema, service.db.all_active())
        run_closure(fresh, service.rules, collect_assignments=False)
        return set(service.db.all_deltas()), set(fresh.all_deltas())

    def check(self, current: Pass, calls: Calls, first: bool) -> None:
        for pid, (signatures, closure, restarted) in current.outputs.items():
            if restarted is None:
                continue
            if closure is not None and closure[0] != closure[1]:
                calls.fail(f"service {pid}: delta extent != from-scratch closure")
            if restarted.load_engine != "warm":
                calls.fail(
                    f"service {pid}: restart ran {restarted.load_engine!r}, not warm",
                )
            if {item.signature() for item in restarted.assignments()} != signatures:
                calls.fail(
                    f"service {pid}: restarted assignments differ from live ones",
                )
            restarted.db.close()

    def end_to_end(self, passes: List[Pass]) -> List[tuple]:
        def of(wanted):
            return [s for p in passes for kind, s in p.timed if kind == wanted]

        def per_pass(kind):
            return statistics.median(p.kind_seconds(kind) for p in passes)

        applies, queries = of("apply"), of("query")
        return [
            ("load_s", per_pass("load"), "s"),
            ("restart_s", per_pass("restart"), "s"),
            ("apply_p50_ms", percentile(applies, 50) * 1e3, "ms"),
            ("apply_p99_ms", percentile(applies, 99) * 1e3, "ms"),
            ("query_p50_us", percentile(queries, 50) * 1e6, "us"),
            ("query_p99_us", percentile(queries, 99) * 1e6, "us"),
        ]

    def sizes(self) -> Dict[str, Any]:
        return {
            "tuples": self.dataset.total_tuples,
            "programs": [f"mas/{pid}" for pid in self.program_ids],
            "flush_policy": "WAL, synchronous=NORMAL",
        }

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (RepairMas, ClosureScale, ServiceStream)}
