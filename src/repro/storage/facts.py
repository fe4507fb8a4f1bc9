"""Facts (database tuples).

A :class:`Fact` is a tuple of a named relation, e.g. ``Author(4, "Marge")``.
Facts are immutable and hashable; equality is *set semantics* — two facts with
the same relation and the same values are the same tuple, regardless of their
optional human-readable identifier ``tid`` (the ``a2``/``w1``/``g2`` labels the
paper uses in its running example are ``tid`` values here).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class Fact:
    """An immutable database tuple ``relation(values...)``.

    Parameters
    ----------
    relation:
        Name of the relation this tuple belongs to.
    values:
        The attribute values, in schema order.
    tid:
        Optional human-readable tuple identifier (only used for display and for
        matching the paper's running examples); not part of equality/hashing.
    """

    __slots__ = ("relation", "values", "tid", "_hash")

    def __init__(
        self, relation: str, values: Sequence[Any], tid: str | None = None
    ) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "tid", tid)
        object.__setattr__(self, "_hash", hash((relation, self.values)))

    # Facts are conceptually frozen; block accidental mutation.
    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Fact objects are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Fact objects are immutable")

    def __reduce__(self) -> tuple:
        # Default pickling would __setattr__ into the frozen slots; rebuild
        # through the constructor instead.
        return (Fact, (self.relation, self.values, self.tid))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.relation == other.relation and self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Fact") -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """A deterministic sort key (relation name, stringified values)."""
        return (self.relation, tuple(str(value) for value in self.values))

    # -- convenience -------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of attribute values."""
        return len(self.values)

    def value(self, position: int) -> Any:
        """Return the value at 0-based ``position``."""
        return self.values[position]

    def with_tid(self, tid: str) -> "Fact":
        """Return a copy of this fact carrying the given identifier."""
        return Fact(self.relation, self.values, tid)

    def label(self) -> str:
        """The display label: the ``tid`` when present, otherwise the full text."""
        return self.tid if self.tid is not None else str(self)

    def __repr__(self) -> str:
        rendered = ", ".join(repr(value) for value in self.values)
        if self.tid is not None:
            return f"{self.relation}({rendered})#{self.tid}"
        return f"{self.relation}({rendered})"

    def __str__(self) -> str:
        rendered = ", ".join(str(value) for value in self.values)
        return f"{self.relation}({rendered})"


def fact(relation: str, *values: Any, tid: str | None = None) -> Fact:
    """Shorthand constructor: ``fact("Author", 4, "Marge", tid="a2")``."""
    return Fact(relation, values, tid=tid)


def facts_by_relation(items: Iterable[Fact]) -> dict[str, set[Fact]]:
    """Group an iterable of facts by relation name."""
    grouped: dict[str, set[Fact]] = {}
    for item in items:
        grouped.setdefault(item.relation, set()).add(item)
    return grouped
