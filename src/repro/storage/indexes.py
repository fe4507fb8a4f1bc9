"""Per-attribute hash indexes for the in-memory storage engine.

Rule-body evaluation repeatedly asks "give me all facts of relation ``R``
whose attribute at position ``i`` equals ``v``" while extending a partial
assignment.  :class:`RelationIndex` answers those lookups in expected O(1) by
maintaining one hash index per attribute position, built lazily on first use
and maintained incrementally afterwards.

The index also keeps an append-only log of insertions so the semi-naive
evaluator can ask for the *frontier* — "every fact added since token ``T``" —
without diffing whole extents (see :meth:`RelationIndex.token` and
:meth:`RelationIndex.added_since`).

Per-position tries
------------------

The worst-case-optimal join driver (:mod:`repro.datalog.wcoj`) walks relation
extents attribute-by-attribute rather than fact-by-fact, intersecting the
possible values of one variable across every atom that mentions it.  That
access pattern needs a *trie* view of the extent: nested dictionaries keyed by
the attribute values in a chosen position order, with the full fact at the
leaves.  :meth:`RelationIndex.trie` builds such a view lazily per position
order (the first request scans the extent once) and every subsequent
``add``/``discard`` maintains all built tries incrementally, exactly like the
per-position hash indexes.  Because :class:`~repro.storage.facts.Fact`
equality ignores the tuple id, an extent holds at most one fact per value
tuple, so a fully-descended trie path ends in a single ``Fact`` — no leaf
cross-products.  ``clear`` drops the tries and :meth:`RelationIndex.copy`
never carries them over; value-level ordering is applied by the wcoj driver
when it materialises an intersection, keeping trie maintenance O(arity).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Set

from repro.storage.facts import Fact


class RelationIndex:
    """Hash indexes over a single relation extent (active or delta).

    The index only ever stores references to :class:`Fact` objects owned by the
    database; it never copies values.  Positions are indexed lazily: the first
    lookup on position ``i`` scans the extent once and subsequent inserts and
    removals keep that position's index up to date.
    """

    __slots__ = ("_facts", "_by_position", "_tries", "_snapshot", "_log")

    def __init__(self, facts: Iterable[Fact] | None = None) -> None:
        self._facts: Set[Fact] = set(facts) if facts is not None else set()
        self._by_position: Dict[int, Dict[Any, Set[Fact]]] = {}
        #: Lazily built tries keyed by position order (see module docstring).
        self._tries: Dict[tuple, Dict[Any, Any]] = {}
        #: Cached frozen snapshot of the extent, dropped on every write.
        self._snapshot: frozenset[Fact] | None = None
        #: Append-only insertion log backing the frontier tokens.
        self._log: List[Fact] = list(self._facts)

    # -- extent maintenance --------------------------------------------------

    def add(self, item: Fact) -> bool:
        """Insert a fact; returns False when it was already present."""
        if item in self._facts:
            return False
        self._facts.add(item)
        self._log.append(item)
        self._snapshot = None
        for position, buckets in self._by_position.items():
            buckets.setdefault(item.values[position], set()).add(item)
        for positions, trie in self._tries.items():
            self._trie_insert(trie, positions, item)
        return True

    def discard(self, item: Fact) -> bool:
        """Remove a fact if present; returns True when something was removed."""
        if item not in self._facts:
            return False
        self._facts.discard(item)
        self._snapshot = None
        for position, buckets in self._by_position.items():
            bucket = buckets.get(item.values[position])
            if bucket is not None:
                bucket.discard(item)
                if not bucket:
                    del buckets[item.values[position]]
        for positions, trie in self._tries.items():
            self._trie_remove(trie, positions, item)
        return True

    def clear(self) -> None:
        """Remove every fact and drop all indexes (the frontier log survives
        so outstanding tokens stay valid)."""
        self._facts.clear()
        self._by_position.clear()
        self._tries.clear()
        self._snapshot = None

    # -- frontier tokens -------------------------------------------------------

    def token(self) -> int:
        """An opaque marker for "now": pass it back to :meth:`added_since`."""
        return len(self._log)

    def added_since(self, token: int) -> List[Fact]:
        """Facts added after ``token`` was taken and still present.

        Tokens are monotone: the same token can be replayed as the extent keeps
        growing.  Facts discarded since their insertion are filtered out.
        """
        if token >= len(self._log):
            return []
        present = self._facts
        return [item for item in self._log[token:] if item in present]

    # -- lookups --------------------------------------------------------------

    def __contains__(self, item: object) -> bool:
        return item in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def facts(self) -> frozenset[Fact]:
        """A frozen snapshot of the extent (cached until the next write)."""
        if self._snapshot is None:
            self._snapshot = frozenset(self._facts)
        return self._snapshot

    def _ensure_position(self, position: int) -> Dict[Any, Set[Fact]]:
        buckets = self._by_position.get(position)
        if buckets is None:
            buckets = {}
            for item in self._facts:
                buckets.setdefault(item.values[position], set()).add(item)
            self._by_position[position] = buckets
        return buckets

    def lookup(self, position: int, value: Any) -> Set[Fact]:
        """All facts whose attribute at ``position`` equals ``value``.

        Returns a *live view* of the underlying bucket — do not mutate it, and
        do not hold it across writes to the index.
        """
        buckets = self._ensure_position(position)
        bucket = buckets.get(value)
        return bucket if bucket is not None else _EMPTY_BUCKET

    # -- tries -----------------------------------------------------------------

    @staticmethod
    def _trie_insert(trie: Dict[Any, Any], positions: tuple, item: Fact) -> None:
        values = item.values
        node = trie
        for position in positions[:-1]:
            node = node.setdefault(values[position], {})
        node[values[positions[-1]]] = item

    @staticmethod
    def _trie_remove(trie: Dict[Any, Any], positions: tuple, item: Fact) -> None:
        values = item.values
        path: List[tuple] = []
        node = trie
        for position in positions[:-1]:
            child = node.get(values[position])
            if child is None:
                return
            path.append((node, values[position]))
            node = child
        node.pop(values[positions[-1]], None)
        # Prune now-empty interior nodes so key sets stay exact.
        while path and not node:
            node, key = path.pop()
            del node[key]

    def trie(self, positions: tuple) -> Dict[Any, Any]:
        """A nested-dict trie over the extent keyed in ``positions`` order.

        ``positions`` must be a permutation of the relation's attribute
        positions.  Level ``k`` maps the value at ``positions[k]`` to the next
        level; the final level maps the last value to the (unique) fact.  The
        returned trie is a *live view* maintained by ``add``/``discard`` — do
        not mutate it.  Built on first request by a single extent scan; the
        build publishes only a fully-constructed trie so concurrent readers
        never observe a partial structure.
        """
        if not positions:
            raise ValueError("trie requires at least one position")
        trie = self._tries.get(positions)
        if trie is None:
            trie = {}
            for item in self._facts:
                self._trie_insert(trie, positions, item)
            self._tries[positions] = trie
        return trie

    # -- candidate iteration -----------------------------------------------------

    def candidates(self, bindings: Mapping[int, Any]) -> Iterator[Fact]:
        """Facts matching every ``position -> value`` constraint in ``bindings``.

        With an empty ``bindings`` this iterates the whole extent.  Otherwise a
        single indexed position (the one with the smallest bucket) narrows the
        scan and the remaining constraints are checked per candidate.
        """
        if not bindings:
            yield from self._facts
            return
        # Pick the most selective bound position to drive the scan.
        best_position = None
        best_bucket: Set[Fact] | None = None
        for position, value in bindings.items():
            bucket = self._ensure_position(position).get(value, _EMPTY_BUCKET)
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_position, best_bucket = position, bucket
                if not bucket:
                    return
        assert best_bucket is not None
        if len(bindings) == 1:
            yield from best_bucket
            return
        remaining = [
            (position, value)
            for position, value in bindings.items()
            if position != best_position
        ]
        for item in best_bucket:
            values = item.values
            if all(values[position] == value for position, value in remaining):
                yield item

    def copy(self) -> "RelationIndex":
        """Return a copy sharing no mutable state (indexes are rebuilt lazily)."""
        return RelationIndex(self._facts)


#: Shared immutable-by-convention empty bucket returned by missing lookups.
_EMPTY_BUCKET: Set[Fact] = set()
