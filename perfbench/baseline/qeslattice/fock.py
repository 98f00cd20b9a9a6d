"""Occupation-number bases for a ring of ``f`` bosonic sites.

States are plain tuples of non-negative integers ``(n_1, ..., n_f)`` giving
the number of quanta on each site.  A :class:`FockBasis` is a finite,
explicitly enumerated list of such states, either the sector with exactly
``n`` total quanta (dimension ``C(n+f-1, f-1)``) or the union of all sectors
with at most ``n_max`` quanta (for ``n_max = 2`` the dimension is
``(f+1)(f+2)/2``).

The enumeration order is deterministic: total quanta ascending, then
lexicographically descending within a sector.  For ``f = 2``, ``n = 2`` this
gives ``(2,0), (1,1), (0,2)``.  Matrix representations built on top of these
bases therefore have reproducible layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterator

Occupation = tuple[int, ...]

_SELECTOR_KINDS = ("exactly", "at_most")


@dataclass(frozen=True)
class Selector:
    """Which total-quanta sectors a basis covers.

    ``exactly(n)`` selects the single sector with ``n`` quanta; ``at_most(n)``
    selects the direct sum of the sectors ``0, 1, ..., n``.
    """

    kind: str
    bound: int

    def __post_init__(self) -> None:
        if self.kind not in _SELECTOR_KINDS:
            raise ValueError(f"unknown selector kind {self.kind!r}")
        if self.bound < 0:
            raise ValueError("selector bound must be non-negative")

    def admits(self, total: int) -> bool:
        if self.kind == "exactly":
            return total == self.bound
        return 0 <= total <= self.bound

    def totals(self) -> range:
        """Total-quanta values covered, in enumeration order."""
        if self.kind == "exactly":
            return range(self.bound, self.bound + 1)
        return range(0, self.bound + 1)


def exactly(n: int) -> Selector:
    return Selector("exactly", n)


def at_most(n: int) -> Selector:
    return Selector("at_most", n)


def _compositions(total: int, parts: int) -> Iterator[Occupation]:
    """Compositions of ``total`` into ``parts`` non-negative integers,
    lexicographically descending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class FockBasis:
    """Ordered occupation-number basis with its index map.

    Immutable after construction; safe to share between threads.
    """

    f: int
    selector: Selector
    states: tuple[Occupation, ...]
    index: dict[Occupation, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.states)

    def position(self, v: Occupation) -> int | None:
        """Index of ``v`` in the enumeration, or ``None`` if outside the
        selector.  A wrong-length tuple is a usage error, not "absent"."""
        if len(v) != self.f:
            raise ValueError(f"state has {len(v)} sites, basis has {self.f}")
        return self.index.get(tuple(v))

    def sector_indices(self, n: int) -> range:
        """Positions of the exactly-``n`` states (contiguous by construction)."""
        if not self.selector.admits(n):
            return range(0, 0)
        offset = 0
        for m in self.selector.totals():
            width = comb(m + self.f - 1, self.f - 1)
            if m == n:
                return range(offset, offset + width)
            offset += width
        return range(0, 0)


def enumerate_basis(f: int, selector: Selector) -> FockBasis:
    """Enumerate the occupation basis of ``f`` sites for a quanta selector.

    Repeated calls produce identical orderings.  Rejects ``f < 1``.
    """
    if f < 1:
        raise ValueError("site count f must be >= 1")
    states: list[Occupation] = []
    for n in selector.totals():
        states.extend(_compositions(n, f))
    index = {s: i for i, s in enumerate(states)}
    return FockBasis(f=f, selector=selector, states=tuple(states), index=index)


def state_index(basis: FockBasis, v: Occupation) -> int | None:
    """Position of ``v`` in ``basis`` (zero-based), or ``None`` if the state
    fails the selector."""
    return basis.position(v)


def translate(v: Occupation) -> Occupation:
    """Cyclic site shift: ``(n_1, ..., n_f) -> (n_f, n_1, ..., n_{f-1})``.

    Applying it ``f`` times is the identity; the total quanta is invariant.
    """
    return (v[-1],) + tuple(v[:-1])
