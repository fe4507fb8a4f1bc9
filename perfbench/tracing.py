"""Spans and counters recorded from outside the library, for the traced run.

The library has no trace of its own yet, so the benchmark wraps the public
function each layer exposes (and reads ``RepairResult.timer``,
``RepairResult.metadata`` and ``EvalContext.stats`` after each call).  Nothing
under ``src/`` changes: :func:`instrument` swaps module attributes for timed
wrappers and puts the originals back when the traced pass ends, so untraced
passes run the library exactly as users get it.

A span is ``[name, start, end, parent, op]``: the layer is the name without
its last dotted part (``core.semantics.step`` belongs to ``core.semantics``),
``parent`` is the index of the enclosing span on the same thread (or -1) and
``op`` the id of the benchmark operation that caused it.  Spans stay in memory
and :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List

import repro.core.semantics as semantics_pkg
import repro.core.semantics.end as end_mod
import repro.core.semantics.independent as independent_mod
import repro.core.semantics.step as step_mod
import repro.core.stability as stability_mod
import repro.service as service_mod
import repro.storage.database as database_mod
from repro.datalog.incremental import PersistentAssignmentStore
from repro.solver.cnf import CNF
from repro.storage.database import Database
from repro.storage.sqlite_backend import SQLiteDatabase

#: The ``/* repro:<class> */`` statement tags the SQL paths emit.
SQL_TAGS = (
    "assign",
    "assign-select",
    "install-direct",
    "install-staged",
    "shard-install",
    "shard-select",
    "stage",
    "stage-ddl",
    "stage-delete",
    "stage-rows",
    "wcoj",
)
_TAG = re.compile(r"/\* repro:([a-z_-]+) \*/")


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name without the last dotted part."""
    return name.rsplit(".", 1)[0]


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """A benchmark operation: a root span with a fresh operation id."""
        self.op += 1
        with self.span(f"bench.{kind}"):
            yield

    def sql_hook(self, sql: str) -> None:
        """Statement hook for :meth:`SQLiteDatabase.add_statement_hook`."""
        found = _TAG.search(sql)
        self.counters["storage.sql_statements"] += 1
        self.counters[
            "storage.sql_statements." + (found.group(1) if found else "untagged")
        ] += 1

    def dump(self, path: str) -> None:
        """Write every span out as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                handle,
            )


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def operation(tracer: Tracer | None, kind: str):
    """``tracer.operation(kind)``, or a no-op when the run is untraced."""
    return nullcontext() if tracer is None else tracer.operation(kind)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for record in spans:
        if record[3] >= 0:
            children.setdefault(record[3], []).append((record[1], record[2]))
    return [
        (record[2] - record[1])
        - _covered(children.get(index, []), record[1], record[2])
        for index, record in enumerate(spans)
    ]


def summarize(spans: List[list], base: int = 0) -> Dict[str, float]:
    """Per-name and per-layer seconds over ``spans[base:]``.

    ``<name>`` sums the outermost spans of that name (a recursive copy inside
    a copy is not counted twice); ``self:<name>`` and ``<layer>.self_s`` sum
    the self times of the spans of that name and of that layer.
    """
    window = spans[base:]
    # Re-base parents into the window; parents outside it become roots.
    local = [
        [name, start, end, parent - base if parent >= base else -1, op]
        for name, start, end, parent, op in window
    ]
    own = self_times(local)
    totals: Dict[str, float] = Counter()
    for index, (name, start, end, parent, _op) in enumerate(local):
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if local[ancestor][0] == name:
                nested = True
                break
            ancestor = local[ancestor][3]
        if not nested:
            totals[name] += end - start
        totals["self:" + name] += own[index]
        totals[layer_of(name) + ".self_s"] += own[index]
    return dict(totals)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, function: Callable, after=None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public entry points for the duration of the block."""
    undo: List[Callable[[], None]] = []

    def patch(owner, attribute: str, replacement) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute,
        )
        setattr(owner, attribute, replacement)
        undo.append(lambda: setattr(owner, attribute, original))

    def patch_item(mapping: dict, key, replacement) -> None:
        original = mapping[key]
        mapping[key] = replacement
        undo.append(lambda: mapping.__setitem__(key, original))

    # core.semantics: the four implementations compute_repair dispatches to.
    for member, function in list(semantics_pkg.SEMANTICS_IMPLEMENTATIONS.items()):
        patch_item(
            semantics_pkg.SEMANTICS_IMPLEMENTATIONS,
            member,
            _timed(tracer, f"core.semantics.{member.value}", function),
        )

    # datalog: the closure entry point, where each caller looks it up.
    def closure_done(result) -> None:
        tracer.counters["datalog.closure_calls"] += 1
        tracer.counters["datalog.rounds"] += result.rounds

    for module in (end_mod, step_mod, service_mod):
        patch(
            module,
            "run_closure",
            _timed(tracer, "datalog.closure", module.run_closure, closure_done),
        )

    # storage: database copies, and a statement hook on every SQLite copy.
    def hook(copy) -> None:
        if isinstance(copy, SQLiteDatabase):
            copy.add_statement_hook(tracer.sql_hook)

    def hook_until_done(copy) -> None:
        # Copies made by from_database outlive the traced block.
        copy.add_statement_hook(tracer.sql_hook)
        undo.append(lambda: copy.remove_statement_hook(tracer.sql_hook))

    for cls in (Database, SQLiteDatabase):
        patch(cls, "clone", _timed(tracer, "storage.copy", cls.__dict__["clone"], hook))
    from_database = SQLiteDatabase.__dict__["from_database"].__func__
    patch(
        SQLiteDatabase,
        "from_database",
        classmethod(_timed(tracer, "storage.copy", from_database, hook_until_done)),
    )
    for module in (database_mod, stability_mod, step_mod, independent_mod):
        patch(
            module,
            "stabilized_copy",
            _timed(tracer, "storage.copy", module.stabilized_copy),
        )

    # core.semantics: tie-break hashes of the step traverse (a count, no span).
    stable_hash = step_mod.stable_hash

    def counted_hash(*parts):
        tracer.counters["core.semantics.hash_calls"] += 1
        return stable_hash(*parts)

    patch(step_mod, "stable_hash", counted_hash)

    # provenance and solver, as independent semantics calls them.
    patch(
        independent_mod,
        "build_boolean_provenance",
        _timed(tracer, "provenance.boolean", independent_mod.build_boolean_provenance),
    )
    patch(
        independent_mod,
        "solve_min_ones",
        _timed(tracer, "solver.solve", independent_mod.solve_min_ones),
    )
    simplified = CNF.__dict__["simplified"]
    patch(CNF, "simplified", _timed(tracer, "solver.simplify", simplified))
    unsatisfied = CNF.__dict__["unsatisfied_clauses"]

    def counted_unsatisfied(self, assignment):
        tracer.counters["solver.unsat_scans"] += 1
        tracer.counters["solver.clauses_scanned"] += len(self.clauses)
        return unsatisfied(self, assignment)

    patch(CNF, "unsatisfied_clauses", counted_unsatisfied)

    components = CNF.__dict__["components"]

    def measured_components(self):
        parts = components(self)
        widest = max((part.variable_count for part in parts), default=0)
        counters = tracer.counters
        counters["solver.largest_component"] = max(
            counters["solver.largest_component"], widest,
        )
        return parts

    patch(CNF, "components", measured_components)

    # datalog.incremental: the maintenance passes the service calls, and the
    # persisted store's flush / warm-restart load.
    patch(
        service_mod,
        "dred_delete",
        _timed(tracer, "datalog.incremental.dred", service_mod.dred_delete),
    )
    patch(
        service_mod,
        "maintain_insertions",
        _timed(tracer, "datalog.incremental.insert", service_mod.maintain_insertions),
    )
    patch(
        PersistentAssignmentStore,
        "flush",
        _timed(
            tracer,
            "datalog.incremental.flush",
            PersistentAssignmentStore.__dict__["flush"],
        ),
    )
    patch(
        PersistentAssignmentStore,
        "load_persisted",
        _timed(
            tracer,
            "datalog.incremental.restore",
            PersistentAssignmentStore.__dict__["load_persisted"],
        ),
    )

    # service: load, batches and point queries.
    service_cls = service_mod.RepairService
    for attribute, name in (
        ("__init__", "service.load"),
        ("apply_many", "service.apply"),
        ("in_repair", "service.query"),
        ("is_derivable", "service.query"),
    ):
        original = service_cls.__dict__[attribute]
        patch(service_cls, attribute, _timed(tracer, name, original))

    try:
        yield
    finally:
        for restore in reversed(undo):
            restore()
