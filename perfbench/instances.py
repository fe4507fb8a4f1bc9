"""Seeded inputs for the benchmark workloads.

Every instance comes from the library's own generators run with the fixed
:data:`GENERATOR_SEED`, then :func:`relabel` maps it through a random,
strictly increasing renaming of every integer value drawn from ``--seed``
and reinserts the facts in sorted order.

Why the generator seed is fixed: the MAS cascades are seeded by the largest
organization, so their size follows the generator seed.  Over generator seeds
3-10 at scale 2, mas/20's step result ranged 603-1218 tuples and step time
1.8-6.0 s on a 2-vCPU Xeon VM, a spread no 25% bound can hold.  A strictly
increasing renaming keeps every join, equality and ``<`` comparison of the programs (the TPC-H
thresholds compare across key domains, so one map covers all integers), so
every seed yields an isomorphic instance with the same closure sizes, while
values, tie-break hashes and the service stream's choices change with
``--seed``.  Facts go in sorted order, the same for every seed: a seeded
insertion order changed the order of the provenance clauses and, with it,
memory locality, and made mas/20's passes 30% slower on some seeds with the
same solver work (equal ``unsatisfied_clauses`` scans and hash calls).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.storage.database import Database
from repro.storage.facts import Fact
from repro.utils.rng import make_rng
from repro.workloads.mas import MASDataset, generate_mas
from repro.workloads.tpch import TPCHDataset, generate_tpch

#: Seed of the library generators; ``--seed`` only drives :func:`relabel`.
GENERATOR_SEED = 0


def relabel(dataset: Any, seed: int) -> Any:
    """An isomorphic copy of ``dataset`` with integers renamed from ``seed``.

    Applies one strictly increasing map to every integer value of every fact
    and to the integer constants the programs select on, and inserts the
    renamed facts in sorted order.
    """
    rng = make_rng(seed, "perfbench-relabel")
    constants = {
        key: value
        for key, value in dataclasses.asdict(dataset.constants).items()
        if type(value) is int
    }
    facts = sorted(dataset.db.all_active(), key=Fact.sort_key)
    domain = set(constants.values())
    for item in facts:
        domain.update(value for value in item.values if type(value) is int)
    ordered = sorted(domain)
    renamed = dict(
        zip(ordered, sorted(rng.sample(range(1, 8 * len(ordered) + 1), len(ordered)))),
    )
    facts = [
        Fact(
            item.relation,
            tuple(
                renamed[value] if type(value) is int else value for value in item.values
            ),
            tid=item.tid,
        )
        for item in facts
    ]
    db = Database(dataset.schema)
    db.insert_all(facts)
    return dataclasses.replace(
        dataset,
        db=db,
        constants=dataclasses.replace(
            dataset.constants,
            **{key: renamed[value] for key, value in constants.items()},
        ),
    )


def mas_instance(scale: float, seed: int) -> MASDataset:
    """A MAS instance at ``scale`` for benchmark seed ``seed``."""
    return relabel(generate_mas(scale=scale, seed=GENERATOR_SEED), seed)


def tpch_instance(scale: float, seed: int) -> TPCHDataset:
    """A TPC-H instance at ``scale`` for benchmark seed ``seed``."""
    return relabel(generate_tpch(scale=scale, seed=GENERATOR_SEED), seed)
