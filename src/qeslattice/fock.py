"""Occupation-number bases for a ring of ``f`` bosonic sites.

States are plain tuples of non-negative integers ``(n_1, ..., n_f)`` giving
the number of quanta on each site.  A :class:`FockBasis` is a finite,
explicitly enumerated list of such states over a range of total-quanta
sectors: ``exactly(n)`` is ``range(n, n + 1)``, the one sector of dimension
``C(n+f-1, f-1)``, and ``at_most(n_max)`` is ``range(n_max + 1)``, the union
of the sectors ``0, ..., n_max`` (for ``n_max = 2`` the dimension is
``(f+1)(f+2)/2``).

The enumeration order is deterministic: total quanta ascending, then
lexicographically descending within a sector.  For ``f = 2``, ``n = 2`` this
gives ``(2,0), (1,1), (0,2)``.  Matrix representations built on top of these
bases therefore have reproducible layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator

Occupation = tuple[int, ...]


def exactly(n: int) -> range:
    """The sector with exactly ``n`` total quanta.  Rejects ``n < 0``."""
    if n < 0:
        raise ValueError("quanta count must be non-negative")
    return range(n, n + 1)


def at_most(n: int) -> range:
    """The sectors with ``0, 1, ..., n`` total quanta.  Rejects ``n < 0``."""
    return range(exactly(n).stop)


def _compositions(total: int, parts: int) -> Iterator[Occupation]:
    """Compositions of ``total`` into ``parts`` non-negative integers,
    lexicographically descending.

    Each composition is the occupation of one multiset of ``total`` sites;
    the multisets come sorted ascending, which orders their occupations
    descending.
    """
    for sites in combinations_with_replacement(range(parts), total):
        occ = [0] * parts
        for site in sites:
            occ[site] += 1
        yield tuple(occ)


@dataclass(frozen=True)
class FockBasis:
    """Ordered occupation-number basis with its index map.

    Immutable after construction; safe to share between threads.
    """

    f: int
    sectors: range
    states: tuple[Occupation, ...]
    index: dict[Occupation, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.states)

    def sector_indices(self, n: int) -> range:
        """Positions of the exactly-``n`` states (contiguous by construction)."""
        offset = 0
        for m in self.sectors:
            width = comb(m + self.f - 1, self.f - 1)
            if m == n:
                return range(offset, offset + width)
            offset += width
        return range(0, 0)


def enumerate_basis(f: int, sectors: range) -> FockBasis:
    """Enumerate the occupation basis of ``f`` sites over a range of
    total-quanta sectors.

    Repeated calls produce identical orderings.  Rejects ``f < 1``.
    """
    if f < 1:
        raise ValueError("site count f must be >= 1")
    states: list[Occupation] = []
    for n in sectors:
        states.extend(_compositions(n, f))
    index = {s: i for i, s in enumerate(states)}
    return FockBasis(f=f, sectors=sectors, states=tuple(states), index=index)


def translate(v: Occupation) -> Occupation:
    """Cyclic site shift: ``(n_1, ..., n_f) -> (n_f, n_1, ..., n_{f-1})``.

    Applying it ``f`` times is the identity; the total quanta is invariant.
    """
    return (v[-1],) + tuple(v[:-1])
